#include "zbp/sample/sample_runner.hh"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "zbp/obs/obs_config.hh"
#include "zbp/obs/trace_writer.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/sample/snapshot_fanout.hh"
#include "zbp/trace/trace_index.hh"

namespace zbp::sample
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
            .count();
}

/** acc += d, fieldwise over every counter (never the derived fields —
 * cpi is recomputed by the caller, statsText stays empty). */
void
accumulate(cpu::SimResult &acc, const cpu::SimResult &d)
{
    acc.cycles += d.cycles;
    acc.instructions += d.instructions;
    acc.branches += d.branches;
    acc.takenBranches += d.takenBranches;
    acc.correct += d.correct;
    acc.mispredictDir += d.mispredictDir;
    acc.mispredictTarget += d.mispredictTarget;
    acc.surpriseCompulsory += d.surpriseCompulsory;
    acc.surpriseLatency += d.surpriseLatency;
    acc.surpriseCapacity += d.surpriseCapacity;
    acc.surpriseBenign += d.surpriseBenign;
    acc.phantoms += d.phantoms;
    acc.icacheMisses += d.icacheMisses;
    acc.dcacheMisses += d.dcacheMisses;
    acc.dataAccesses += d.dataAccesses;
    acc.btb1MissReports += d.btb1MissReports;
    acc.btb2RowReads += d.btb2RowReads;
    acc.btb2Transfers += d.btb2Transfers;
    acc.btb2FullSearches += d.btb2FullSearches;
    acc.btb2PartialSearches += d.btb2PartialSearches;
    acc.predictionsMade += d.predictionsMade;
    acc.watchdogResets += d.watchdogResets;
    acc.resolves += d.resolves;
    acc.faultsInjected += d.faultsInjected;
}

/** end - start, fieldwise (the "what happened in between" delta; every
 * counter is monotone so the subtraction never wraps). */
cpu::SimResult
subtractResult(const cpu::SimResult &end, const cpu::SimResult &start)
{
    cpu::SimResult d;
    d.traceName = end.traceName;
    d.cycles = end.cycles - start.cycles;
    d.instructions = end.instructions - start.instructions;
    d.branches = end.branches - start.branches;
    d.takenBranches = end.takenBranches - start.takenBranches;
    d.correct = end.correct - start.correct;
    d.mispredictDir = end.mispredictDir - start.mispredictDir;
    d.mispredictTarget = end.mispredictTarget - start.mispredictTarget;
    d.surpriseCompulsory =
            end.surpriseCompulsory - start.surpriseCompulsory;
    d.surpriseLatency = end.surpriseLatency - start.surpriseLatency;
    d.surpriseCapacity = end.surpriseCapacity - start.surpriseCapacity;
    d.surpriseBenign = end.surpriseBenign - start.surpriseBenign;
    d.phantoms = end.phantoms - start.phantoms;
    d.icacheMisses = end.icacheMisses - start.icacheMisses;
    d.dcacheMisses = end.dcacheMisses - start.dcacheMisses;
    d.dataAccesses = end.dataAccesses - start.dataAccesses;
    d.btb1MissReports = end.btb1MissReports - start.btb1MissReports;
    d.btb2RowReads = end.btb2RowReads - start.btb2RowReads;
    d.btb2Transfers = end.btb2Transfers - start.btb2Transfers;
    d.btb2FullSearches = end.btb2FullSearches - start.btb2FullSearches;
    d.btb2PartialSearches =
            end.btb2PartialSearches - start.btb2PartialSearches;
    d.predictionsMade = end.predictionsMade - start.predictionsMade;
    d.watchdogResets = end.watchdogResets - start.watchdogResets;
    d.resolves = end.resolves - start.resolves;
    d.faultsInjected = end.faultsInjected - start.faultsInjected;
    d.cpi = d.instructions > 0
                    ? static_cast<double>(d.cycles) /
                              static_cast<double>(d.instructions)
                    : 0.0;
    return d;
}

} // namespace

SampleRunner::SampleRunner(SampleParams p, unsigned jobs)
    : prm(p), nJobs(runner::resolveJobs(jobs))
{}

void
SampleRunner::setSinkPath(std::string path)
{
    sinkPath = std::move(path);
    sinkPathSet = true;
}

void
SampleRunner::setResumePath(std::string path)
{
    resumePath = std::move(path);
    resumePathSet = true;
}

std::string
SampleRunner::intervalConfigName(const std::string &config, std::size_t k)
{
    return config + "#iv" + std::to_string(k);
}

SampleReport
SampleRunner::run(const std::string &config_name,
                  const core::MachineParams &cfg, const trace::Trace &t)
{
    const auto t0 = std::chrono::steady_clock::now();
    const auto plan = planIntervals(t.size(), prm);

    obs::TraceWriter *tw = obs::globalTraceWriter();
    std::uint32_t lane = 0;
    if (tw != nullptr)
        lane = tw->newLane(obs::TraceWriter::kPidRunner, "sampled sim");

    const trace::TraceIndex tidx(t);
    const std::string sink_path =
            sinkPathSet ? sinkPath : runner::JsonlSink::envPath();
    runner::JsonlSink sink(sink_path);
    const std::string resume_path =
            resumePathSet ? resumePath : runner::resumePathFromEnv();
    const auto resume =
            resume_path.empty()
                    ? std::unordered_map<std::string,
                                         runner::SimJobResult>{}
                    : runner::loadResumeResults(resume_path);

    std::vector<cpu::SimResult> deltas(plan.size());
    // One byte per interval: workers set their own entries
    // concurrently, which packed std::vector<bool> bits would race on.
    std::vector<char> resumed(plan.size(), 0);
    std::vector<double> seconds(plan.size(), 0.0);

    // Hand-off from the warm-up pass to the intervals: the pass moves
    // snapshot k into slots[k] and wakes the waiters; interval k takes
    // it by move.  A warm-up failure wakes every waiter instead.
    std::mutex mu;
    std::condition_variable cv;
    std::vector<ckpt::SnapshotBuffer> slots(plan.size());
    std::vector<bool> ready(plan.size(), false);
    std::exception_ptr warmup_error;

    // One batch: job 0 is the warm-up pass, job k+1 is interval k.  The
    // executor claims index 0 first, so the pass always has a worker
    // and an interval only ever waits on a pass that is running; with
    // one worker the batch runs inline in index order, i.e. the whole
    // pass and then every interval.
    FanoutResult fan;
    const double iv_ts = tw != nullptr ? tw->nowUs() : 0.0;
    const runner::ParallelExecutor pool(nJobs);
    const auto failures = pool.run(plan.size() + 1, [&](std::size_t job) {
        if (job == 0) {
            const double ts = tw != nullptr ? tw->nowUs() : 0.0;
            try {
                cpu::CoreModel warm(cfg);
                warm.setTraceIndex(&tidx);
                fan = runWarmupFanout(
                        warm, t, plan, prm.mode,
                        [&](std::size_t k, ckpt::SnapshotBuffer &&s) {
                            {
                                const std::lock_guard<std::mutex> lock(mu);
                                slots[k] = std::move(s);
                                ready[k] = true;
                            }
                            cv.notify_all();
                        });
            } catch (...) {
                {
                    const std::lock_guard<std::mutex> lock(mu);
                    warmup_error = std::current_exception();
                }
                cv.notify_all();
                return;
            }
            if (tw != nullptr)
                tw->span(obs::TraceWriter::kPidRunner, lane, "sample",
                         "warm-up:" + std::string(to_string(prm.mode)), ts,
                         tw->nowUs() - ts,
                         {{"instructions",
                           obs::jsonNum(std::uint64_t{fan.instructions})},
                          {"snapshots",
                           obs::jsonNum(std::uint64_t{plan.size()})}});
            return;
        }

        // A detailed interval: restore, re-warm in fast mode, measure
        // a window.
        const std::size_t i = job - 1;
        const IntervalPlan &iv = plan[i];
        const std::string iv_name =
                intervalConfigName(config_name, iv.index);
        const std::uint64_t seed =
                runner::JobRunner::deriveSeed(iv_name, t.name());

        const auto hit =
                resume.find(runner::resumeKey(iv_name, t.name(), seed));
        if (hit != resume.end()) {
            deltas[i] = hit->second.result;
            resumed[i] = 1;
            return;
        }

        ckpt::SnapshotBuffer snap;
        {
            std::unique_lock<std::mutex> lock(mu);
            if (iv.snapshotAt > 0)
                cv.wait(lock, [&] { return ready[i] || warmup_error; });
            if (warmup_error)
                return; // run() rethrows the warm-up's own error
            snap = std::move(slots[i]);
        }

        const auto j0 = std::chrono::steady_clock::now();
        cpu::CoreModel m(cfg);
        m.setTraceIndex(&tidx);
        m.beginRun(t);
        if (iv.snapshotAt > 0) {
            ckpt::Reader r = snap.reader();
            m.restoreState(r);
            r.finish();
            snap = {}; // free the image before the long advance
        }
        m.advance(iv.measureBegin); // fast-mode detailed re-warm
        const cpu::SimResult start = m.interimResult();
        m.advance(iv.measureEnd);
        const bool closes_run =
                prm.mode == SampleMode::kExact && iv.measureEnd == t.size();
        const cpu::SimResult end =
                closes_run ? m.finishRun() : m.interimResult();
        deltas[i] = subtractResult(end, start);
        seconds[i] = secondsSince(j0);

        runner::SimJob sim_job(iv_name, cfg, &t, seed);
        runner::SimJobResult jr;
        jr.ok = true;
        jr.seconds = seconds[i];
        jr.result = deltas[i];
        sink.write(runner::jobRecord(sim_job, jr));
    });
    if (tw != nullptr)
        tw->span(obs::TraceWriter::kPidRunner, lane, "sample",
                 "intervals", iv_ts, tw->nowUs() - iv_ts,
                 {{"intervals", obs::jsonNum(std::uint64_t{plan.size()})},
                  {"failures",
                   obs::jsonNum(std::uint64_t{failures.size()})}});
    if (warmup_error)
        std::rethrow_exception(warmup_error);
    if (!failures.empty()) {
        obs::obsFlush();
        throw std::runtime_error(
                "sample: interval " +
                std::to_string(plan[failures.front().index - 1].index) +
                " failed: " + failures.front().message + " (" +
                std::to_string(failures.size()) + " of " +
                std::to_string(plan.size()) + " intervals failed)");
    }

    // Stitch.
    SampleReport rep;
    rep.stitched.traceName = t.name();
    for (const auto &d : deltas)
        accumulate(rep.stitched, d);
    rep.stitched.cpi =
            rep.stitched.instructions > 0
                    ? static_cast<double>(rep.stitched.cycles) /
                              static_cast<double>(rep.stitched.instructions)
                    : 0.0;
    rep.exact = prm.mode == SampleMode::kExact;
    if (rep.exact) {
        const std::string err = cpu::simInvariantError(rep.stitched);
        if (!err.empty())
            throw std::logic_error("sample: exact-mode stitch: " + err);
    }

    rep.intervals = plan.size();
    for (std::size_t i = 0; i < plan.size(); ++i) {
        rep.resumedIntervals += resumed[i] ? 1 : 0;
        rep.detailedSeconds += seconds[i];
    }
    rep.coverage = t.size() > 0 ? static_cast<double>(
                                          rep.stitched.instructions) /
                                          static_cast<double>(t.size())
                                : 0.0;
    rep.estimatedCpi = rep.stitched.cpi;

    // Insts-weighted standard error of the per-interval CPI around the
    // stitched mean: the fast-mode error bar (0 for a single interval).
    if (plan.size() > 1 && rep.stitched.instructions > 0) {
        double var = 0.0;
        for (const auto &d : deltas) {
            const double w = static_cast<double>(d.instructions) /
                             static_cast<double>(rep.stitched.instructions);
            const double e = d.cpi - rep.estimatedCpi;
            var += w * e * e;
        }
        rep.cpiErrorBar =
                std::sqrt(var / static_cast<double>(plan.size()));
    }

    rep.warmupInstructions = fan.instructions;
    rep.warmupSeconds = fan.seconds;
    rep.warmupCaptureSeconds = fan.captureSeconds;
    rep.warmupInstsPerSec = fan.instsPerSec;
    rep.wallSeconds = secondsSince(t0);
    return rep;
}

} // namespace zbp::sample
