#include "zbp/sim/cmp/cmp_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "zbp/cache/dmiss_map.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/log.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/trace/trace_index.hh"

namespace zbp::sim
{

namespace
{

/** Per-worker-thread lane on the orchestration track. */
std::uint32_t
cmpLaneFor(obs::TraceWriter *tw)
{
    static thread_local std::uint32_t lane = 0;
    if (lane == 0)
        lane = tw->newLane(obs::TraceWriter::kPidRunner, "cmp worker");
    return lane;
}

/** Extract an unsigned JSON field from a flat record line; false when
 * the key is absent or unparsable (same tolerance as the generic
 * resume parser: a bad line just fails to match). */
bool
extractU64Field(const std::string &line, const std::string &key,
                std::uint64_t &out)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    const char *p = line.c_str() + at + needle.size();
    char *end = nullptr;
    const unsigned long long v = std::strtoull(p, &end, 10);
    if (end == p)
        return false;
    out = v;
    return true;
}

/** The sharing counters exported per CMP job (order = record order). */
struct SharedField
{
    const char *name;
    std::uint64_t CmpResult::*member;
};

constexpr SharedField kSharedFields[] = {
    {"arbRequests", &CmpResult::arbRequests},
    {"arbGrants", &CmpResult::arbGrants},
    {"arbConflicts", &CmpResult::arbConflicts},
    {"arbWaitCycles", &CmpResult::arbWaitCycles},
    {"arbQueueFullRejects", &CmpResult::arbQueueFullRejects},
    {"l2iHits", &CmpResult::l2iHits},
    {"l2iMisses", &CmpResult::l2iMisses},
    {"faultsInjectedShared", &CmpResult::faultsInjectedShared},
};

std::string
sharingRecord(const CmpJob &job, std::uint64_t seed, double seconds,
              const CmpResult &r)
{
    runner::JsonObject o;
    o.field("trace", cmpTraceMixId(job.traces));
    o.field("config", cmpSharedConfigName(job.name));
    o.field("seed", seed);
    // ok=false keeps runner::loadResumeResults from treating this
    // CMP-level stats line as a resumable per-core job record.
    o.field("ok", false);
    o.field("cmp", true);
    o.field("seconds", seconds);
    o.field("cores", static_cast<std::uint64_t>(r.core.size()));
    for (const auto &f : kSharedFields)
        o.field(f.name, r.*f.member);
    o.field("conflictFraction", r.conflictFraction());
    return o.str();
}

/** Scan a prior results file for the sharing record of (config id,
 * trace mix, seed) and restore its counters into @p r.  Best-effort:
 * a missing record just leaves the sharing stats zeroed. */
bool
loadSharingRecord(const std::string &path, const std::string &config,
                  const std::string &mix, std::uint64_t seed,
                  CmpResult &r)
{
    std::ifstream is(path);
    if (!is)
        return false;
    const std::string config_tag =
            "\"config\":\"" + runner::JsonObject::escape(config) + "\"";
    const std::string trace_tag =
            "\"trace\":\"" + runner::JsonObject::escape(mix) + "\"";
    const std::string seed_tag = "\"seed\":" + std::to_string(seed);
    std::string line;
    while (std::getline(is, line)) {
        if (line.find(config_tag) == std::string::npos ||
            line.find(trace_tag) == std::string::npos ||
            line.find(seed_tag) == std::string::npos)
            continue;
        bool complete = true;
        CmpResult parsed;
        for (const auto &f : kSharedFields) {
            std::uint64_t v = 0;
            if (!extractU64Field(line, f.name, v)) {
                complete = false;
                break;
            }
            parsed.*f.member = v;
        }
        if (!complete)
            continue; // half-written line; keep scanning
        for (const auto &f : kSharedFields)
            r.*f.member = parsed.*f.member;
        return true;
    }
    return false;
}

/**
 * Run a CMP model to completion with optional periodic checkpointing
 * and resume — the CMP twin of the per-core helper in job_runner.cc.
 * With no checkpoint path this is exactly model->run().  @p rebuild
 * reconstructs a fully-wired model after a corrupt restore (a failed
 * restoreState leaves the model half-mutated).
 */
template <typename RebuildFn>
CmpResult
runCmpCheckpointed(std::unique_ptr<CmpModel> &model,
                   const std::vector<const trace::Trace *> &tps,
                   const std::string &ckpt_path, std::uint64_t interval,
                   RebuildFn &&rebuild)
{
    if (ckpt_path.empty())
        return model->run(tps);
    model->beginRun(tps);
    if (ckpt::ckptFileExists(ckpt_path)) {
        try {
            const auto bytes = ckpt::loadCkptFile(ckpt_path);
            ckpt::Reader r(bytes.data(), bytes.size());
            model->restoreState(r);
            r.finish();
            inform("resumed CMP job from checkpoint at ",
                   model->decodedWindow(), " instructions");
        } catch (const ckpt::CkptError &e) {
            warn("discarding unusable CMP checkpoint '", ckpt_path,
                 "' (", e.what(), "); running from scratch");
            ckpt::removeCkptFile(ckpt_path);
            model = rebuild();
            model->beginRun(tps);
        }
    }
    if (interval == 0) {
        model->advance(model->maxInsts());
    } else {
        ckpt::Writer w; // reused: clear() keeps the grown buffer
        for (;;) {
            const std::size_t done = model->decodedWindow();
            const std::size_t total = model->maxInsts();
            // The window frontier moves in stepInsts strides and may
            // overshoot the requested target, so clamp defensively.
            const std::size_t step = done >= total
                    ? 0
                    : static_cast<std::size_t>(std::min<std::uint64_t>(
                              interval, total - done));
            if (model->advance(done + step))
                break;
            w.clear();
            model->saveState(w);
            w.finish();
            ckpt::saveCkptFile(ckpt_path, w);
        }
    }
    CmpResult r = model->finishRun();
    ckpt::removeCkptFile(ckpt_path);
    return r;
}

unsigned
positiveFromEnv(const char *var)
{
    const char *s = std::getenv(var);
    if (s == nullptr || *s == '\0')
        return 0;
    char *end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 1) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("ignoring bad ", var, " '", s, "'");
        return 0;
    }
    return static_cast<unsigned>(v);
}

} // namespace

std::string
cmpCoreConfigName(const std::string &name, unsigned i)
{
    return name + "#c" + std::to_string(i);
}

std::string
cmpSharedConfigName(const std::string &name)
{
    return name + "#shared";
}

std::string
cmpTraceMixId(const std::vector<trace::TraceHandle> &traces)
{
    std::string mix;
    for (const auto &t : traces) {
        if (!mix.empty())
            mix += '+';
        mix += t->name();
    }
    return mix;
}

unsigned
cmpCoresFromEnv()
{
    return positiveFromEnv("ZBP_CMP_CORES");
}

unsigned
cmpBanksFromEnv()
{
    return positiveFromEnv("ZBP_BTB2_BANKS");
}

preload::ArbPolicy
cmpArbPolicyFromEnv(preload::ArbPolicy dflt)
{
    const char *s = std::getenv("ZBP_CMP_ARB");
    if (s == nullptr || *s == '\0')
        return dflt;
    const std::string v(s);
    if (v == "fcfs")
        return preload::ArbPolicy::kFcfs;
    if (v == "tdm")
        return preload::ArbPolicy::kTdm;
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true))
        warn("ignoring bad ZBP_CMP_ARB '", v, "' (want fcfs or tdm)");
    return dflt;
}

CmpRunner::CmpRunner(unsigned jobs) : nJobs(runner::resolveJobs(jobs)) {}

void
CmpRunner::setProgress(runner::ProgressMeter::Callback cb)
{
    progress = std::move(cb);
}

void
CmpRunner::setSinkPath(std::string path)
{
    sinkPath = std::move(path);
    sinkPathSet = true;
}

void
CmpRunner::setResumePath(std::string path)
{
    resumePath = std::move(path);
    resumePathSet = true;
}

std::vector<CmpJobResult>
CmpRunner::run(const std::vector<CmpJob> &jobs)
{
    using SteadyClock = std::chrono::steady_clock;

    const std::string rpath =
            resumePathSet ? resumePath : runner::resumePathFromEnv();
    std::unordered_map<std::string, runner::SimJobResult> prior;
    if (!rpath.empty())
        prior = runner::loadResumeResults(rpath);

    runner::JsonlSink sink(sinkPathSet ? sinkPath
                                       : runner::JsonlSink::envPath());
    runner::ProgressMeter meter(jobs.size(), progress);
    std::vector<CmpJobResult> results(jobs.size());

    obs::TraceWriter *const tw = obs::globalTraceWriter();
    obs::IntervalWriter *const iw = obs::globalIntervalWriter();
    const std::uint64_t obs_interval = obs::globalIntervalInsts();
    const std::string ckpt_dir = ckpt::ckptDirFromEnv();
    const std::uint64_t ckpt_interval = ckpt::ckptIntervalFromEnv();
    const auto submit_at = SteadyClock::now();
    std::atomic<std::uint64_t> nStarted{0};

    const runner::ParallelExecutor exec(nJobs);
    exec.run(jobs.size(), [&](std::size_t ji) {
        const CmpJob &job = jobs[ji];
        CmpJobResult &out = results[ji];
        const unsigned n = static_cast<unsigned>(job.traces.size());

        const std::uint64_t queue_depth =
                jobs.size() - (nStarted.fetch_add(1) + 1);
        const double queue_s = std::chrono::duration<double>(
                SteadyClock::now() - submit_at).count();
        std::uint32_t lane = 0;
        double job_ts = 0.0;
        if (tw != nullptr) {
            lane = cmpLaneFor(tw);
            job_ts = tw->nowUs();
        }

        // Per-core identity, interchangeable with JobRunner's: seed
        // from (config name, trace name) only, never execution order.
        std::vector<std::uint64_t> seeds(n);
        for (unsigned i = 0; i < n; ++i)
            seeds[i] = runner::JobRunner::deriveSeed(
                    cmpCoreConfigName(job.name, i),
                    job.traces[i]->name());
        const std::string mix = cmpTraceMixId(job.traces);
        const std::uint64_t shared_seed = runner::JobRunner::deriveSeed(
                cmpSharedConfigName(job.name), mix);

        // All-or-nothing resume: the job is satisfied only when every
        // per-core record is in the checkpoint.
        if (!prior.empty() && n != 0) {
            bool all = true;
            std::vector<const runner::SimJobResult *> hits(n, nullptr);
            for (unsigned i = 0; i < n; ++i) {
                const auto it = prior.find(runner::resumeKey(
                        cmpCoreConfigName(job.name, i),
                        job.traces[i]->name(), seeds[i]));
                if (it == prior.end()) {
                    all = false;
                    break;
                }
                hits[i] = &it->second;
            }
            if (all) {
                out.ok = true;
                out.resumed = true;
                out.result.core.reserve(n);
                for (unsigned i = 0; i < n; ++i) {
                    out.result.core.push_back(hits[i]->result);
                    out.seconds += hits[i]->seconds;
                }
                loadSharingRecord(rpath,
                                  cmpSharedConfigName(job.name), mix,
                                  shared_seed, out.result);
                meter.jobDone(job.name + " (resumed)", 0.0);
                return;
            }
        }

        const auto t0 = SteadyClock::now();
        try {
            // Shared read-only sidecars, deduplicated by trace: a
            // homogeneous mix indexes its one trace once, not once per
            // core.  The job's cores share one machine configuration,
            // so one D-cache outcome map per distinct trace suffices.
            std::unordered_map<const trace::Trace *,
                               std::unique_ptr<trace::TraceIndex>> indexes;
            std::unordered_map<const trace::Trace *,
                               std::vector<std::uint8_t>> dmaps;
            std::vector<const trace::Trace *> tps(n);
            for (unsigned i = 0; i < n; ++i) {
                const trace::Trace *tp = &*job.traces[i];
                tps[i] = tp;
                auto &idx = indexes[tp];
                if (!idx)
                    idx = std::make_unique<trace::TraceIndex>(*tp);
                if (job.cfg.dcacheEnabled) {
                    auto &map = dmaps[tp];
                    if (map.empty())
                        map = cache::computeDataMissMap(*tp,
                                                        job.cfg.dcache);
                }
            }

            const auto buildModel = [&] {
                auto m = std::make_unique<CmpModel>(job.cfg);
                if (iw != nullptr)
                    m->attachObs(iw, obs_interval, job.name);
                if (tw != nullptr)
                    m->attachTracer(tw);
                for (unsigned i = 0; i < n; ++i) {
                    m->setTraceIndex(i, indexes[tps[i]].get());
                    if (job.cfg.dcacheEnabled)
                        m->setDataMissMap(i, &dmaps[tps[i]]);
                }
                return m;
            };
            auto model = buildModel();
            const std::string ckpt_path = ckpt_dir.empty()
                    ? std::string()
                    : ckpt::ckptPathFor(ckpt_dir,
                                        "cmp\x1f" + job.name + "\x1f" +
                                                mix);
            out.result = runCmpCheckpointed(model, tps, ckpt_path,
                                            ckpt_interval, buildModel);
            out.ok = true;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
            // The process may be dying with the job; push buffered
            // observability rows to disk first.
            obs::obsFlush();
        }
        out.seconds = std::chrono::duration<double>(SteadyClock::now() -
                                                    t0).count();

        if (out.ok) {
            // Per-core records, byte-compatible with the generic
            // runner path; job wall-clock split evenly (cores of a CMP
            // advance in lockstep, their time is not separable).
            for (unsigned i = 0; i < n; ++i) {
                runner::SimJob cj(cmpCoreConfigName(job.name, i),
                                  job.cfg, &*job.traces[i], seeds[i]);
                runner::SimJobResult cr;
                cr.ok = true;
                cr.seconds = out.seconds / n;
                cr.result = out.result.core[i];
                cr.telemetry.collected = true;
                cr.telemetry.queueSeconds = queue_s;
                cr.telemetry.queueDepth = queue_depth;
                cr.telemetry.runSeconds = cr.seconds;
                sink.write(runner::jobRecord(cj, cr));
            }
            sink.write(sharingRecord(job, shared_seed, out.seconds,
                                     out.result));
        } else {
            // One failure record under the job's own name so the
            // failed sweep is visible in the results file.
            runner::SimJob cj(job.name, job.cfg,
                              n != 0 ? &*job.traces[0] : nullptr, 0);
            runner::SimJobResult cr;
            cr.ok = false;
            cr.error = out.error;
            cr.seconds = out.seconds;
            sink.write(runner::jobRecord(cj, cr));
        }
        if (tw != nullptr)
            tw->span(obs::TraceWriter::kPidRunner, lane, "cmp",
                     std::string("cmp:") + job.name, job_ts,
                     tw->nowUs() - job_ts,
                     {{"ok", out.ok ? "true" : "false"},
                      {"cores", obs::jsonNum(
                               static_cast<std::uint64_t>(n))}});
        meter.jobDone(job.name, out.seconds);
    });
    return results;
}

} // namespace zbp::sim
