/**
 * @file
 * Generic sharded job execution: run N independent indexed jobs across
 * a pool of std::thread workers with per-job exception capture.
 *
 * The executor is deliberately domain-free (it knows nothing about
 * simulations); zbp::runner::JobRunner layers the simulation-specific
 * plumbing (results, JSONL export, progress) on top.
 *
 * Worker count resolution, everywhere in the repo:
 *   explicit value > ZBP_JOBS environment variable >
 *   std::thread::hardware_concurrency().
 *
 * Determinism contract: jobs receive their index and write results
 * only into per-index slots, so any interleaving produces the same
 * output as a serial run.  With one worker (or one job) the executor
 * runs inline on the calling thread — no thread is ever spawned.
 */

#ifndef ZBP_RUNNER_EXECUTOR_HH
#define ZBP_RUNNER_EXECUTOR_HH

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

namespace zbp::runner
{

/**
 * A job failure worth re-attempting (transient environment trouble:
 * a file that was briefly unopenable, a resource that was momentarily
 * exhausted).  JobRunner retries jobs that throw this — and
 * trace::TraceOpenError, the other transient class — with bounded
 * backoff; everything else fails the job on the first throw.
 */
class RetryableError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** ZBP_JOBS if set and valid, else hardware_concurrency (min 1). */
unsigned jobsFromEnv();

/** @p requested if non-zero, else jobsFromEnv(). */
unsigned resolveJobs(unsigned requested);

/** One captured job failure (the job threw instead of completing). */
struct JobFailure
{
    std::size_t index = 0;
    std::string message;
};

/**
 * Runs fn(i) for i in [0, n) on a fixed-size worker pool.  Indices are
 * handed out through a shared atomic cursor, so workers stay busy even
 * when job durations are wildly uneven.
 *
 * Ordering guarantee: indices are claimed in increasing order, so index
 * 0 is claimed before any other index, by a worker that then runs it.
 * A job i > 0 may therefore block until job 0 makes progress (as
 * sample::SampleRunner's intervals wait for the warm-up pass in job 0)
 * without starving it, provided job 0 itself never waits on another
 * job.  With one worker the jobs run inline in index order.
 */
class ParallelExecutor
{
  public:
    /** @p jobs 0 resolves via resolveJobs(). */
    explicit ParallelExecutor(unsigned jobs = 0);

    unsigned jobs() const { return nJobs; }

    /**
     * Execute every index; blocks until all are done.  An exception
     * escaping @p fn is captured as a JobFailure and the remaining
     * jobs still run.  Returns the failures sorted by index.
     */
    std::vector<JobFailure>
    run(std::size_t n, const std::function<void(std::size_t)> &fn) const;

  private:
    unsigned nJobs;
};

} // namespace zbp::runner

#endif // ZBP_RUNNER_EXECUTOR_HH
