/**
 * @file
 * Fundamental scalar types shared by every zbp module, plus the
 * portable cache-prefetch hint the table structures use.
 *
 * The zEC12 is a big-endian 64-bit machine; the paper numbers address
 * bits MSB-0 (bit 0 is the most significant, bit 63 the least).  All
 * address arithmetic in this library works on plain uint64_t values and
 * uses the helpers in bitfield.hh to translate the paper's MSB-0 field
 * specifications.
 */

#ifndef ZBP_COMMON_TYPES_HH
#define ZBP_COMMON_TYPES_HH

#include <cstdint>

namespace zbp
{

/** A 64-bit virtual instruction address. */
using Addr = std::uint64_t;

/** A simulation cycle count.  Cycles are unsigned and monotonically
 * increasing; individual components may hold "not yet known" as
 * kNoCycle. */
using Cycle = std::uint64_t;

/** Sentinel for an unknown / unscheduled cycle. */
inline constexpr Cycle kNoCycle = ~Cycle{0};

/** Sentinel for an invalid address. */
inline constexpr Addr kNoAddr = ~Addr{0};

/** Instruction counter type. */
using InstCount = std::uint64_t;

/** Portable read-prefetch hint (no-op where unsupported). */
inline void
prefetchRead(const void *p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, 0, 3);
#else
    (void)p;
#endif
}

} // namespace zbp

#endif // ZBP_COMMON_TYPES_HH
