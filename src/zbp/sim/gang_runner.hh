/**
 * @file
 * Gang-chunked sweep execution: N machine configurations simulated over
 * ONE trace in chunk-interleaved order.
 *
 * Running each (config, trace) as its own job would stream every trace
 * through memory once *per configuration*: a 3-config sweep over a
 * 100 MB trace set would read 300 MB of trace data, each pass starting
 * cold on a machine whose LLC cannot hold a trace.  The gang runner,
 * the one sweep path of the simulator, instead walks the sweep
 * trace-major: all configurations of a gang advance over the same
 * instruction window ([0, C), then [C, 2C), ...) before the window
 * moves, so a chunk of trace (and its TraceIndex sidecar) is pulled
 * into cache once and consumed by every model while hot.  DRAM-stream
 * amplification (trace bytes read / trace bytes) drops from N to ~1.
 *
 * Determinism: CoreModel::advance cuts the run loop only at decode
 * boundaries and the models share nothing but immutable inputs (the
 * trace and its sidecar), so per-model results are bit-identical to
 * serial runs — the golden-counter tests and the gang-runner tests pin
 * this, across chunk sizes.
 *
 * The runner honours the same ZBP_RESULTS_JSONL / ZBP_RESUME_JSONL /
 * ZBP_JOB_TIMEOUT contract as runner::JobRunner (same record shape,
 * same resume identity, same "timed out" failure), so a sweep resumes
 * from either runner's records.  The timeout budget is per
 * (config, trace) cell and counts only that member's own busy time, so
 * one slow member fails alone while the rest of its gang keeps running.
 */

#ifndef ZBP_SIM_GANG_RUNNER_HH
#define ZBP_SIM_GANG_RUNNER_HH

#include <cstddef>
#include <string>
#include <vector>

#include "zbp/core/params.hh"
#include "zbp/runner/job_runner.hh"
#include "zbp/runner/progress.hh"
#include "zbp/trace/trace.hh"

namespace zbp::sim
{

/** One member of a gang: a named machine configuration. */
struct GangConfig
{
    std::string name;       ///< label for records, progress and resume
    core::MachineParams cfg;
};

class GangRunner
{
  public:
    /** @p jobs 0 resolves via ZBP_JOBS / hardware_concurrency; the
     * parallel axis is traces (each gang runs on one worker). */
    explicit GangRunner(std::vector<GangConfig> configs,
                        unsigned jobs = 0);

    unsigned jobs() const { return nJobs; }

    /** Decode-chunk size override (>= 1; default 262144).  Results are
     * bit-identical for any value — advance() cuts only at decode
     * boundaries. */
    void setChunk(std::size_t chunk);

    /**
     * Per-(config, trace) wall-clock budget in seconds; overrides the
     * ZBP_JOB_TIMEOUT default.  <= 0 disables (no watchdog thread, no
     * cancel flag on the models).  A member over budget is cancelled
     * cooperatively and fails with runner::JobRunner's "timed out"
     * error; the rest of its gang keeps running.
     */
    void setJobTimeout(double seconds);

    /** Per-completion callback (one completion per (config, trace)). */
    void setProgress(runner::ProgressMeter::Callback cb);

    /** JSONL destination; overrides the ZBP_RESULTS_JSONL default.
     * Empty string disables export. */
    void setSinkPath(std::string path);

    /** Resume checkpoint; overrides the ZBP_RESUME_JSONL default (see
     * runner::JobRunner::setResumePath — identical semantics). */
    void setResumePath(std::string path);

    /**
     * Run every configuration over every trace; result[c][t] is
     * config c over trace t.  A config that throws (wedge, invariant
     * violation) yields ok=false for that (config, trace) cell; the
     * rest of the gang keeps running.  Each trace's TraceIndex is
     * computed once and shared read-only by the whole gang.
     */
    std::vector<std::vector<runner::SimJobResult>>
    run(const std::vector<trace::TraceHandle> &traces);

  private:
    std::vector<GangConfig> configs;
    unsigned nJobs;
    std::size_t chunk;
    double jobTimeout = 0.0;
    bool jobTimeoutSet = false;
    runner::ProgressMeter::Callback progress;
    std::string sinkPath;
    bool sinkPathSet = false;
    std::string resumePath;
    bool resumePathSet = false;
};

} // namespace zbp::sim

#endif // ZBP_SIM_GANG_RUNNER_HH
