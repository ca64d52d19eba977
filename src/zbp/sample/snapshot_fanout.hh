/**
 * @file
 * The serial part of a sampled run: interval planning and the warm-up
 * pass that fans out one in-memory restore point (ckpt::SnapshotBuffer)
 * per interval boundary.
 *
 * The warm-up pass is the only part of a sampled run that walks the
 * trace front to back.  Each detailed measurement interval needs only
 * its own restore point, so a caller that passes a SnapshotSink gets
 * every snapshot the moment it is captured and can start interval k
 * while the pass walks on towards boundary k+1 (SampleRunner runs the
 * pass as job 0 of the same worker batch as the intervals).  In exact
 * mode the pass uses CoreModel::advance, so every snapshot is the true
 * detailed machine state at its boundary; in fast mode it uses
 * CoreModel::advanceFunctional, trading per-cycle fidelity for an
 * order-of-magnitude higher instruction rate (the per-interval detailed
 * warm-up downstream re-fills the timing-only state).
 */

#ifndef ZBP_SAMPLE_SNAPSHOT_FANOUT_HH
#define ZBP_SAMPLE_SNAPSHOT_FANOUT_HH

#include <cstddef>
#include <functional>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/sample/sample_params.hh"
#include "zbp/trace/trace.hh"

namespace zbp::sample
{

/** One measurement interval of a sampled run, in decode-boundary
 * instruction indices over the trace. */
struct IntervalPlan
{
    std::size_t index = 0;        ///< interval ordinal k (names #iv<k>)
    std::size_t snapshotAt = 0;   ///< restore point (k * intervalInsts)
    std::size_t measureBegin = 0; ///< first measured instruction
    std::size_t measureEnd = 0;   ///< one past the last measured inst
};

/**
 * Lay measurement intervals over a trace of @p trace_len instructions.
 * Exact mode tiles: [k*I, (k+1)*I) with the tail clamped, so the
 * windows cover every instruction exactly once.  Fast mode samples:
 * the window starts warmupInsts after the restore point and spans
 * measured() instructions, clamped to the trace; boundary intervals
 * whose window would be empty are dropped.  Throws
 * std::invalid_argument via SampleParams::validate or on an empty
 * trace.
 */
std::vector<IntervalPlan> planIntervals(std::size_t trace_len,
                                        const SampleParams &p);

/** Receives the snapshot that restores plan[i], by move, as soon as
 * the warm-up pass has captured it. */
using SnapshotSink =
        std::function<void(std::size_t i, ckpt::SnapshotBuffer &&snapshot)>;

/** What the warm-up pass produced. */
struct FanoutResult
{
    /** Without a SnapshotSink, snapshots[i] restores plan[i] and an
     * interval starting at instruction 0 has an empty buffer (it starts
     * from beginRun, no restore needed).  With a sink, empty: every
     * snapshot went to the sink. */
    std::vector<ckpt::SnapshotBuffer> snapshots;
    std::size_t instructions = 0; ///< instructions walked by the pass
    double seconds = 0.0;
    /** The part of seconds spent saving and capturing snapshots; the
     * rest is execution between boundaries. */
    double captureSeconds = 0.0;
    double instsPerSec = 0.0;
};

/**
 * Walk @p m (already constructed, not yet armed) over @p t up to the
 * last restore point in @p plan, capturing a saveState snapshot into
 * memory at each boundary.  @p mode selects detailed (kExact) or
 * functional (kFast) execution between boundaries.  Each snapshot goes
 * to @p on_snapshot when one is given (in plan order, on the calling
 * thread, never for a restore point at instruction 0), else into
 * FanoutResult::snapshots.  The model is left armed mid-run and should
 * be discarded by the caller.
 */
FanoutResult runWarmupFanout(cpu::CoreModel &m, const trace::Trace &t,
                             const std::vector<IntervalPlan> &plan,
                             SampleMode mode,
                             const SnapshotSink &on_snapshot = {});

} // namespace zbp::sample

#endif // ZBP_SAMPLE_SNAPSHOT_FANOUT_HH
