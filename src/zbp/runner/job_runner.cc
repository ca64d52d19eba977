#include "zbp/runner/job_runner.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/log.hh"
#include "zbp/obs/obs_config.hh"
#include "zbp/runner/executor.hh"
#include "zbp/runner/jsonl_sink.hh"
#include "zbp/trace/trace_io.hh"

namespace zbp::runner
{

namespace
{

std::uint64_t
mixString(std::uint64_t h, const std::string &s)
{
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001B3ull; // FNV-1a step
    }
    return h;
}

/** The exported counter fields, mirroring sim::resultCsvHeader().
 * Member pointers (not getters) so resume can write them back when
 * reconstructing a SimResult from a JSONL record. */
struct Field
{
    const char *name;
    std::uint64_t cpu::SimResult::*member;
};

constexpr Field kFields[] = {
    {"cycles", &cpu::SimResult::cycles},
    {"instructions", &cpu::SimResult::instructions},
    {"branches", &cpu::SimResult::branches},
    {"takenBranches", &cpu::SimResult::takenBranches},
    {"correct", &cpu::SimResult::correct},
    {"mispredictDir", &cpu::SimResult::mispredictDir},
    {"mispredictTarget", &cpu::SimResult::mispredictTarget},
    {"surpriseCompulsory", &cpu::SimResult::surpriseCompulsory},
    {"surpriseLatency", &cpu::SimResult::surpriseLatency},
    {"surpriseCapacity", &cpu::SimResult::surpriseCapacity},
    {"surpriseBenign", &cpu::SimResult::surpriseBenign},
    {"phantoms", &cpu::SimResult::phantoms},
    {"icacheMisses", &cpu::SimResult::icacheMisses},
    {"dcacheMisses", &cpu::SimResult::dcacheMisses},
    {"btb1MissReports", &cpu::SimResult::btb1MissReports},
    {"btb2RowReads", &cpu::SimResult::btb2RowReads},
    {"btb2Transfers", &cpu::SimResult::btb2Transfers},
    {"predictionsMade", &cpu::SimResult::predictionsMade},
    {"resolves", &cpu::SimResult::resolves},
    {"faultsInjected", &cpu::SimResult::faultsInjected},
};

unsigned
retriesFromEnv()
{
    const char *s = std::getenv("ZBP_JOB_RETRIES");
    if (s == nullptr || *s == '\0')
        return 0;
    char *end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end == s || *end != '\0' || v < 0 || v > 100) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("ignoring bad ZBP_JOB_RETRIES '", s, "'");
        return 0;
    }
    return static_cast<unsigned>(v);
}

// ---- minimal JSONL field extraction (for resume) --------------------
//
// Records are produced by jobRecord() below, so the shapes are known:
// flat objects, keys unique.  The extractors tolerate unknown fields
// and malformed lines (they just fail to match, and the line is
// ignored) — a truncated checkpoint from a crashed sweep must never
// break the resumed run.

bool
findValue(const std::string &line, const std::string &key,
          std::size_t &value_begin)
{
    const std::string needle = "\"" + key + "\":";
    const std::size_t at = line.find(needle);
    if (at == std::string::npos)
        return false;
    value_begin = at + needle.size();
    return value_begin < line.size();
}

bool
extractString(const std::string &line, const std::string &key,
              std::string &out)
{
    std::size_t i;
    if (!findValue(line, key, i) || line[i] != '"')
        return false;
    ++i;
    std::string s;
    while (i < line.size() && line[i] != '"') {
        if (line[i] == '\\' && i + 1 < line.size()) {
            ++i;
            switch (line[i]) {
              case 'n': s += '\n'; break;
              case 't': s += '\t'; break;
              case 'u':
                // \u00XX escapes only ever encode control bytes here;
                // resume identity never contains them, skip the code.
                i += 4;
                s += '?';
                break;
              default: s += line[i]; break;
            }
        } else {
            s += line[i];
        }
        ++i;
    }
    if (i >= line.size())
        return false; // unterminated string: corrupt line
    out = std::move(s);
    return true;
}

bool
extractU64(const std::string &line, const std::string &key,
           std::uint64_t &out)
{
    std::size_t i;
    if (!findValue(line, key, i))
        return false;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(line.c_str() + i, &end, 10);
    if (end == line.c_str() + i)
        return false;
    out = v;
    return true;
}

bool
extractDouble(const std::string &line, const std::string &key,
              double &out)
{
    std::size_t i;
    if (!findValue(line, key, i))
        return false;
    char *end = nullptr;
    const double v = std::strtod(line.c_str() + i, &end);
    if (end == line.c_str() + i)
        return false;
    out = v;
    return true;
}

bool
extractBool(const std::string &line, const std::string &key, bool &out)
{
    std::size_t i;
    if (!findValue(line, key, i))
        return false;
    if (line.compare(i, 4, "true") == 0) {
        out = true;
        return true;
    }
    if (line.compare(i, 5, "false") == 0) {
        out = false;
        return true;
    }
    return false;
}

/**
 * Run @p model over @p t with optional crash resume and periodic
 * checkpointing.  An empty @p ckpt_path is exactly model->run(t) —
 * zero overhead when checkpointing is off.  Otherwise: an existing
 * valid snapshot is restored and the run continues mid-trace
 * (bit-identical to an uninterrupted run); a corrupt, truncated or
 * mismatched snapshot is discarded — the half-restored model is
 * rebuilt via @p rebuild and the run starts from scratch; with
 * @p interval > 0 a snapshot is atomically published every
 * @p interval decoded instructions.  The snapshot is removed once the
 * run completes, so a finished job can never satisfy a later resume.
 */
template <typename RebuildFn>
cpu::SimResult
runCoreCheckpointed(std::unique_ptr<cpu::CoreModel> &model,
                    const trace::Trace &t, const std::string &ckpt_path,
                    std::uint64_t interval, RebuildFn &&rebuild)
{
    if (ckpt_path.empty())
        return model->run(t);
    model->beginRun(t);
    if (ckpt::ckptFileExists(ckpt_path)) {
        try {
            const auto bytes = ckpt::loadCkptFile(ckpt_path);
            ckpt::Reader r(bytes.data(), bytes.size());
            model->restoreState(r);
            r.finish();
            inform("resumed '", t.name(), "' from checkpoint at ",
                   model->decodedInstructions(), " instructions");
        } catch (const ckpt::CkptError &e) {
            warn("discarding unusable checkpoint '", ckpt_path, "' (",
                 e.what(), "); running '", t.name(), "' from scratch");
            ckpt::removeCkptFile(ckpt_path);
            model = rebuild(); // a half-restored model is poison
            model->beginRun(t);
        }
    }
    if (interval == 0) {
        model->advance(t.size());
    } else {
        ckpt::Writer w; // reused: clear() keeps the grown buffer
        for (;;) {
            const std::size_t done = model->decodedInstructions();
            const std::size_t step = static_cast<std::size_t>(
                    std::min<std::uint64_t>(interval, t.size() - done));
            if (model->advance(done + step))
                break;
            w.clear();
            model->saveState(w);
            w.finish();
            ckpt::saveCkptFile(ckpt_path, w);
        }
    }
    cpu::SimResult r = model->finishRun();
    ckpt::removeCkptFile(ckpt_path);
    return r;
}

/** Per-worker-thread lane on the orchestration track, allocated on
 * first use.  The writer is the process-wide singleton, so a lane
 * outlives any one JobRunner and can be cached per thread. */
std::uint32_t
workerLane(obs::TraceWriter *tw)
{
    static thread_local std::uint32_t lane = 0;
    if (lane == 0)
        lane = tw->newLane(obs::TraceWriter::kPidRunner, "job worker");
    return lane;
}

} // namespace

std::string
resumePathFromEnv()
{
    const char *s = std::getenv("ZBP_RESUME_JSONL");
    return s != nullptr ? std::string(s) : std::string();
}

double
jobTimeoutFromEnv()
{
    const char *s = std::getenv("ZBP_JOB_TIMEOUT");
    if (s == nullptr || *s == '\0')
        return 0.0;
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !(v >= 0.0)) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("ignoring bad ZBP_JOB_TIMEOUT '", s, "'");
        return 0.0;
    }
    return v;
}

TimeoutWatchdog::TimeoutWatchdog(double seconds) : limit(seconds)
{
    if (limit > 0.0)
        th = std::thread([this] { loop(); });
}

TimeoutWatchdog::~TimeoutWatchdog()
{
    if (th.joinable()) {
        {
            std::lock_guard<std::mutex> lk(mu);
            stop = true;
        }
        cv.notify_all();
        th.join();
    }
}

std::string
TimeoutWatchdog::timedOut(const std::exception &cancelled) const
{
    return "timed out after " + std::to_string(limit) + "s: " +
           cancelled.what();
}

std::size_t
TimeoutWatchdog::arm(std::atomic<bool> &flag, double budget)
{
    const auto deadline = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(budget));
    std::lock_guard<std::mutex> lk(mu);
    std::size_t id = 0;
    while (id < entries.size() && entries[id].inUse)
        ++id;
    if (id == entries.size())
        entries.emplace_back();
    entries[id] = {deadline, &flag, true};
    return id;
}

void
TimeoutWatchdog::disarm(std::size_t id)
{
    std::lock_guard<std::mutex> lk(mu);
    entries[id].inUse = false;
}

void
TimeoutWatchdog::loop()
{
    std::unique_lock<std::mutex> lk(mu);
    while (!cv.wait_for(lk, std::chrono::milliseconds(5),
                        [this] { return stop; })) {
        const auto now = std::chrono::steady_clock::now();
        for (const auto &e : entries)
            if (e.inUse && now >= e.deadline)
                e.flag->store(true, std::memory_order_relaxed);
    }
}

std::string
resumeKey(const std::string &config, const std::string &trace,
          std::uint64_t seed)
{
    return config + '\x1f' + trace + '\x1f' + std::to_string(seed);
}

std::unordered_map<std::string, SimJobResult>
loadResumeResults(const std::string &path)
{
    std::unordered_map<std::string, SimJobResult> prior;
    std::ifstream is(path);
    if (!is) {
        warn("resume file '", path, "' cannot be opened; ignoring");
        return prior;
    }
    std::string line;
    std::size_t malformed = 0;
    while (std::getline(is, line)) {
        if (line.empty())
            continue;
        // Torn trailing line from a killed writer: a JSONL record is one
        // complete object per line, so anything not brace-delimited is
        // garbage from an interrupted write — skip it (the job re-runs).
        if (line.front() != '{' || line.back() != '}') {
            ++malformed;
            continue;
        }
        std::string config, tname;
        std::uint64_t seed = 0;
        bool ok = false;
        if (!extractString(line, "config", config) ||
            !extractString(line, "trace", tname) ||
            !extractU64(line, "seed", seed) ||
            !extractBool(line, "ok", ok)) {
            ++malformed;
            continue;
        }
        if (!ok)
            continue;
        SimJobResult r;
        r.ok = true;
        r.resumed = true;
        r.result.traceName = tname;
        (void)extractDouble(line, "seconds", r.seconds);
        (void)extractDouble(line, "cpi", r.result.cpi);
        std::uint64_t attempts = 1;
        (void)extractU64(line, "attempts", attempts);
        r.attempts = static_cast<unsigned>(attempts);
        bool complete = true;
        for (const auto &f : kFields) {
            std::uint64_t v = 0;
            if (!extractU64(line, f.name, v)) {
                complete = false;
                break;
            }
            r.result.*f.member = v;
        }
        if (!complete) {
            ++malformed;
            continue; // e.g. a half-written final line: re-run the job
        }
        prior[resumeKey(config, tname, seed)] = std::move(r);
    }
    if (malformed != 0)
        warn("resume file '", path, "': skipped ", malformed,
             " malformed record(s)");
    return prior;
}

std::string
jobTraceId(const SimJob &job)
{
    if (job.trace != nullptr)
        return job.trace->name();
    if (!job.tracePath.empty())
        return job.tracePath;
    return "<null>";
}

std::uint64_t
JobRunner::deriveSeed(const std::string &config_name,
                      const std::string &trace_name)
{
    std::uint64_t h = 0xCBF29CE484222325ull; // FNV offset basis
    h = mixString(h, config_name);
    h = mixString(h, "/");
    h = mixString(h, trace_name);
    // SplitMix64 finalizer: spread the FNV state over all 64 bits.
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
}

std::string
jobRecord(const SimJob &job, const SimJobResult &r)
{
    JsonObject o;
    o.field("trace", jobTraceId(job));
    o.field("config", job.configName);
    o.field("seed", job.seed);
    o.field("ok", r.ok);
    o.field("seconds", r.seconds);
    o.field("attempts", static_cast<std::uint64_t>(r.attempts));
    if (!r.ok) {
        o.field("error", r.error);
        return o.str();
    }
    o.field("cpi", r.result.cpi);
    for (const auto &f : kFields)
        o.field(f.name, r.result.*f.member);
    if (r.telemetry.collected) {
        o.field("queueSeconds", r.telemetry.queueSeconds);
        o.field("loadSeconds", r.telemetry.loadSeconds);
        o.field("runSeconds", r.telemetry.runSeconds);
        o.field("timeoutMargin", r.telemetry.timeoutMargin);
        o.field("retries", static_cast<std::uint64_t>(r.telemetry.retries));
        o.field("queueDepth", r.telemetry.queueDepth);
        o.field("traceCacheHits", r.telemetry.traceCacheHits);
    }
    return o.str();
}

JobRunner::JobRunner(unsigned jobs) : nJobs(resolveJobs(jobs)) {}

void
JobRunner::setProgress(ProgressMeter::Callback cb)
{
    progress = std::move(cb);
}

void
JobRunner::setSinkPath(std::string path)
{
    sinkPath = std::move(path);
    sinkPathSet = true;
}

void
JobRunner::setJobTimeout(double seconds)
{
    jobTimeout = seconds;
    jobTimeoutSet = true;
}

void
JobRunner::setRetries(unsigned n)
{
    retries = n;
    retriesSet = true;
}

void
JobRunner::setResumePath(std::string path)
{
    resumePath = std::move(path);
    resumePathSet = true;
}

std::vector<SimJobResult>
JobRunner::run(const std::vector<SimJob> &jobs)
{
    std::vector<SimJob> resolved = jobs;
    for (auto &j : resolved)
        if (j.seed == 0)
            j.seed = deriveSeed(j.configName, jobTraceId(j));

    const std::string rpath =
            resumePathSet ? resumePath : resumePathFromEnv();
    std::unordered_map<std::string, SimJobResult> prior;
    if (!rpath.empty())
        prior = loadResumeResults(rpath);

    const double timeout =
            jobTimeoutSet ? jobTimeout : jobTimeoutFromEnv();
    const unsigned max_attempts =
            1 + (retriesSet ? retries : retriesFromEnv());

    JsonlSink sink(sinkPathSet ? sinkPath : JsonlSink::envPath());
    ProgressMeter meter(resolved.size(), progress);
    std::vector<SimJobResult> results(resolved.size());
    TimeoutWatchdog dog(timeout);

    obs::TraceWriter *const tw = obs::globalTraceWriter();
    obs::IntervalWriter *const iw = obs::globalIntervalWriter();
    const std::uint64_t obs_interval = obs::globalIntervalInsts();
    const std::string ckpt_dir = ckpt::ckptDirFromEnv();
    const std::uint64_t ckpt_interval = ckpt::ckptIntervalFromEnv();
    const auto submit_at = std::chrono::steady_clock::now();
    std::atomic<std::uint64_t> nStarted{0};

    ParallelExecutor exec(nJobs);
    exec.run(resolved.size(), [&](std::size_t i) {
        const SimJob &job = resolved[i];
        SimJobResult &out = results[i];
        const std::string label = job.configName + "/" + jobTraceId(job);

        if (!prior.empty()) {
            const auto it =
                    prior.find(resumeKey(job.configName, jobTraceId(job),
                                         job.seed));
            if (it != prior.end()) {
                // Satisfied by the checkpoint: do not re-run, do not
                // re-write to the sink (the record already exists in
                // the resumed-from file).
                out = it->second;
                if (tw != nullptr)
                    tw->instant(obs::TraceWriter::kPidRunner,
                                workerLane(tw), "job", "job:resumed",
                                tw->nowUs(),
                                {{"job", obs::jsonStr(label)}});
                meter.jobDone(label + " (resumed)", 0.0);
                return;
            }
        }

        out.telemetry.collected = true;
        out.telemetry.queueDepth =
                resolved.size() - (nStarted.fetch_add(1) + 1);
        const auto t0 = std::chrono::steady_clock::now();
        out.telemetry.queueSeconds =
                std::chrono::duration<double>(t0 - submit_at).count();
        std::uint32_t lane = 0;
        double job_ts = 0.0;
        if (tw != nullptr) {
            lane = workerLane(tw);
            job_ts = tw->nowUs();
        }
        for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
            out.attempts = attempt;
            bool retryable = false;
            try {
                trace::Trace local;
                const trace::Trace *tp = job.trace;
                if (tp == nullptr) {
                    if (job.tracePath.empty())
                        throw std::runtime_error(
                                "job has no trace (null trace pointer "
                                "and empty tracePath)");
                    const auto l0 = std::chrono::steady_clock::now();
                    const double l0_ts =
                            tw != nullptr ? tw->nowUs() : 0.0;
                    local = trace::loadTraceFile(job.tracePath);
                    tp = &local;
                    out.telemetry.loadSeconds =
                            std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - l0)
                                    .count();
                    if (tw != nullptr)
                        tw->span(obs::TraceWriter::kPidRunner, lane,
                                 "job", "load", l0_ts,
                                 tw->nowUs() - l0_ts,
                                 {{"path", obs::jsonStr(job.tracePath)}});
                }
                std::atomic<bool> cancelled{false};
                TimeoutWatchdog::Scope scope(dog, cancelled);
                const auto build_model = [&] {
                    auto m = std::make_unique<cpu::CoreModel>(job.cfg);
                    if (iw != nullptr)
                        m->attachObs(iw, obs_interval, job.configName);
                    if (tw != nullptr)
                        m->attachTracer(tw);
                    m->setCancelFlag(&cancelled);
                    return m;
                };
                auto model = build_model();
                const std::string ckpt_path = ckpt_dir.empty()
                        ? std::string()
                        : ckpt::ckptPathFor(
                                  ckpt_dir,
                                  resumeKey(job.configName, jobTraceId(job),
                                            job.seed));
                const auto r0 = std::chrono::steady_clock::now();
                const double r0_ts = tw != nullptr ? tw->nowUs() : 0.0;
                out.result = runCoreCheckpointed(model, *tp, ckpt_path,
                                                 ckpt_interval,
                                                 build_model);
                out.telemetry.runSeconds =
                        std::chrono::duration<double>(
                                std::chrono::steady_clock::now() - r0)
                                .count();
                if (tw != nullptr)
                    tw->span(obs::TraceWriter::kPidRunner, lane, "job",
                             "run", r0_ts, tw->nowUs() - r0_ts,
                             {{"attempt",
                               obs::jsonNum(std::uint64_t{attempt})}});
                out.ok = true;
                out.error.clear();
                break;
            } catch (const cpu::SimCancelled &e) {
                // Over the wall-clock limit: a retry would hit it
                // again, so fail the job immediately.
                out.ok = false;
                out.error = dog.timedOut(e);
                break;
            } catch (const RetryableError &e) {
                out.ok = false;
                out.error = e.what();
                retryable = true;
            } catch (const trace::TraceOpenError &e) {
                out.ok = false;
                out.error = e.what();
                retryable = true;
            } catch (const std::exception &e) {
                out.ok = false;
                out.error = e.what();
                break;
            } catch (...) {
                out.ok = false;
                out.error = "unknown error";
                break;
            }
            if (!retryable || attempt == max_attempts)
                break;
            if (tw != nullptr)
                tw->instant(obs::TraceWriter::kPidRunner, lane, "job",
                            "job:retry-backoff", tw->nowUs(),
                            {{"attempt",
                              obs::jsonNum(std::uint64_t{attempt})},
                             {"error", obs::jsonStr(out.error)}});
            // Deterministic exponential backoff before the retry.
            std::this_thread::sleep_for(
                    std::chrono::milliseconds(10u << (attempt - 1)));
        }
        out.seconds = std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0).count();
        if (!out.ok) {
            // Abnormal exit: push everything observability has buffered
            // to disk while the process is still alive to do it.
            obs::obsFlush();
        }
        out.telemetry.retries = out.attempts - 1;
        if (dog.enabled())
            out.telemetry.timeoutMargin = dog.seconds() - out.seconds;
        if (tw != nullptr)
            tw->span(obs::TraceWriter::kPidRunner, lane, "job",
                     "job:" + label, job_ts, tw->nowUs() - job_ts,
                     {{"ok", out.ok ? std::string("true")
                                    : std::string("false")},
                      {"attempts",
                       obs::jsonNum(std::uint64_t{out.attempts})}});
        sink.write(jobRecord(job, out));
        meter.jobDone(label, out.seconds);
    });
    return results;
}

} // namespace zbp::runner
