/**
 * @file
 * Surprise-branch direction guessing.
 *
 * "Any branch not predicted by the first level predictor is called a
 * surprise branch and its direction (taken or not-taken) is guessed
 * based on a tagless 32k entry one-bit BHT, its opcode and other
 * instruction text fields." (paper §3.1)
 *
 * Unconditional kinds (jumps, calls, returns) statically guess taken;
 * conditional branches consult the one-bit tagless BHT, which is trained
 * on every resolved conditional branch.
 */

#ifndef ZBP_DIR_SURPRISE_BHT_HH
#define ZBP_DIR_SURPRISE_BHT_HH

#include <cstdint>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/bitfield.hh"
#include "zbp/common/types.hh"
#include "zbp/stats/stats.hh"
#include "zbp/trace/instruction.hh"

namespace zbp::dir
{

/** Tagless one-bit branch history table + static opcode rules. */
class SurpriseBht
{
  public:
    explicit SurpriseBht(std::uint32_t entries = 32 * 1024)
        : bits(entries, false)
    {
        ZBP_ASSERT(isPowerOf2(entries), "BHT entries must be pow2");
    }

    /** Guess the direction of a surprise branch of kind @p k at @p ia. */
    bool
    guessTaken(Addr ia, trace::InstKind k) const
    {
        if (trace::staticGuessTaken(k))
            return true;
        if (k == trace::InstKind::kIndirect)
            return true; // computed branches overwhelmingly resolve taken
        return bits[index(ia)];
    }

    /** Train on a resolved conditional branch. */
    void
    update(Addr ia, trace::InstKind k, bool taken)
    {
        if (k == trace::InstKind::kCondBranch)
            bits[index(ia)] = taken;
    }

    void
    reset()
    {
        bits.assign(bits.size(), false);
    }

    std::size_t size() const { return bits.size(); }

    /** Serialize into one checkpoint section (8 bits per byte). */
    void
    saveState(ckpt::Writer &w) const
    {
        w.beginSection(ckpt::tag::kSurpriseBht);
        w.putU32(static_cast<std::uint32_t>(bits.size()));
        std::uint8_t *p = w.extend((bits.size() + 7) / 8);
        for (std::size_t i = 0; i < bits.size(); i += 8) {
            std::uint8_t acc = 0;
            for (std::size_t b = i; b < i + 8 && b < bits.size(); ++b)
                if (bits[b])
                    acc |= static_cast<std::uint8_t>(1u << (b & 7));
            *p++ = acc;
        }
        w.endSection();
    }

    /** Overwrite from a checkpoint section; throws CkptError on a size
     * mismatch. */
    void
    restoreState(ckpt::Reader &r)
    {
        r.openSection(ckpt::tag::kSurpriseBht);
        if (r.getU32() != bits.size())
            throw ckpt::CkptError("surprise BHT size mismatch");
        const std::uint8_t *p = r.take((bits.size() + 7) / 8);
        for (std::size_t i = 0; i < bits.size(); ++i)
            bits[i] = (p[i >> 3] & (1u << (i & 7))) != 0;
        r.closeSection();
    }

  private:
    std::size_t
    index(Addr ia) const
    {
        // Instructions are 2-byte aligned; fold upper bits in so large
        // footprints spread across the table.
        const Addr x = ia >> 1;
        return (x ^ (x >> 15)) & (bits.size() - 1);
    }

    std::vector<bool> bits;
};

} // namespace zbp::dir

#endif // ZBP_DIR_SURPRISE_BHT_HH
