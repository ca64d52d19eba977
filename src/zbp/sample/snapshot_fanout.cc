#include "zbp/sample/snapshot_fanout.hh"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace zbp::sample
{

std::vector<IntervalPlan>
planIntervals(std::size_t trace_len, const SampleParams &p)
{
    p.validate();
    if (trace_len == 0)
        throw std::invalid_argument("sample: empty trace");

    const std::size_t interval = p.intervalInsts;
    const std::size_t warmup =
            p.mode == SampleMode::kFast ? p.warmupInsts : 0;
    const std::size_t window = p.measured();

    std::vector<IntervalPlan> plan;
    for (std::size_t k = 0; k * interval < trace_len; ++k) {
        IntervalPlan iv;
        iv.index = k;
        iv.snapshotAt = k * interval;
        iv.measureBegin = std::min(iv.snapshotAt + warmup, trace_len);
        iv.measureEnd = std::min(iv.measureBegin + window, trace_len);
        if (iv.measureBegin < iv.measureEnd)
            plan.push_back(iv);
    }
    return plan;
}

FanoutResult
runWarmupFanout(cpu::CoreModel &m, const trace::Trace &t,
                const std::vector<IntervalPlan> &plan, SampleMode mode,
                const SnapshotSink &on_snapshot)
{
    const auto t0 = std::chrono::steady_clock::now();

    FanoutResult out;
    if (!on_snapshot)
        out.snapshots.resize(plan.size());

    // One writer for every snapshot: clear() keeps its grown buffer, and
    // capture() copies each image into an exact-size SnapshotBuffer, so
    // the writer's slack never multiplies across the fan-out.
    ckpt::Writer w;
    m.beginRun(t);
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan[i].snapshotAt == 0)
            continue; // interval 0 starts from beginRun state
        if (mode == SampleMode::kExact)
            m.advance(plan[i].snapshotAt);
        else
            m.advanceFunctional(plan[i].snapshotAt);
        const auto c0 = std::chrono::steady_clock::now();
        w.clear();
        m.saveState(w);
        w.finish();
        ckpt::SnapshotBuffer snap = ckpt::SnapshotBuffer::capture(w);
        out.captureSeconds += std::chrono::duration<double>(
                                      std::chrono::steady_clock::now() - c0)
                                      .count();
        if (on_snapshot)
            on_snapshot(i, std::move(snap));
        else
            out.snapshots[i] = std::move(snap);
    }

    out.instructions = m.decodedInstructions();
    out.seconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    out.instsPerSec = out.seconds > 0.0
                              ? static_cast<double>(out.instructions) /
                                        out.seconds
                              : 0.0;
    return out;
}

} // namespace zbp::sample
