/**
 * @file
 * Temporal-parallel sampled simulation: one (functional or detailed)
 * warm-up pass fans out in-memory restore points, the measurement
 * intervals run as independent detailed jobs across a worker pool and
 * their counter deltas are stitched into a whole-run aggregate.
 *
 * Schedule: the warm-up pass is job 0 of the same worker batch as the
 * intervals and hands each snapshot over the moment it is captured, so
 * interval k starts as soon as snapshot k exists while the pass walks
 * on.  A run's wall time is about the TraceIndex build + the pass + the
 * last interval.  With one worker the batch runs in index order: the
 * whole pass, then every interval.
 *
 * Stitching contract: every SimResult counter is monotone over a run
 * and part of the saved machine state, so the fieldwise difference of
 * two CoreModel::interimResult snapshots is exactly what the machine
 * did in between.  In exact mode the windows tile the trace and the
 * summed deltas are bit-identical to a monolithic CoreModel::run
 * (pinned by tests/sample); in fast mode they are a sample, reported
 * with a coverage ratio and a CPI error bar.
 *
 * Each interval writes one JSONL record (config "<name>#iv<k>") under
 * the same ZBP_RESULTS_JSONL / ZBP_RESUME_JSONL contract as JobRunner,
 * so a killed sampled sweep resumes interval-granular.  Resumed
 * intervals are reconstructed from the record's canonical counter set;
 * fields outside it (dataAccesses, watchdogResets, btb2Full/Partial-
 * Searches) read 0 in a stitch that used resume, exactly as JobRunner
 * resume behaves.
 */

#ifndef ZBP_SAMPLE_SAMPLE_RUNNER_HH
#define ZBP_SAMPLE_SAMPLE_RUNNER_HH

#include <cstddef>
#include <string>

#include "zbp/core/params.hh"
#include "zbp/cpu/core_model.hh"
#include "zbp/sample/sample_params.hh"
#include "zbp/trace/trace.hh"

namespace zbp::sample
{

/** Everything one sampled run reports. */
struct SampleReport
{
    /** Fieldwise sum of the measured-window deltas.  Exact mode: the
     * monolithic result, bit-identical counters.  Fast mode: counters
     * over the measured windows only. */
    cpu::SimResult stitched;

    bool exact = false;        ///< windows tiled the whole trace
    double coverage = 0.0;     ///< measured insts / trace insts
    double estimatedCpi = 0.0; ///< stitched cycles / stitched insts
    /** +- one standard error on estimatedCpi across intervals
     * (insts-weighted); 0 with a single interval. */
    double cpiErrorBar = 0.0;

    std::size_t intervals = 0;
    std::size_t resumedIntervals = 0;

    std::size_t warmupInstructions = 0; ///< insts walked by the warm-up
    /** Wall clock of the warm-up pass; the intervals overlap it. */
    double warmupSeconds = 0.0;
    /** The part of warmupSeconds spent saving and capturing snapshots
     * (the rest is functional or detailed execution). */
    double warmupCaptureSeconds = 0.0;
    double warmupInstsPerSec = 0.0;
    /** Summed per-interval busy time, each from the end of its wait for
     * a snapshot. */
    double detailedSeconds = 0.0;
    double wallSeconds = 0.0; ///< end-to-end wall clock of run()
};

/** Runs one configuration over one trace in sampled mode. */
class SampleRunner
{
  public:
    /** @p jobs 0 resolves via ZBP_JOBS / hardware_concurrency. */
    explicit SampleRunner(SampleParams p, unsigned jobs = 0);

    unsigned jobs() const { return nJobs; }

    /** Per-interval JSONL destination; overrides the ZBP_RESULTS_JSONL
     * default.  Empty string disables export. */
    void setSinkPath(std::string path);

    /** Resume source; overrides the ZBP_RESUME_JSONL default.  Empty
     * string disables. */
    void setResumePath(std::string path);

    /**
     * Warm up, fan out, measure, stitch.  Throws std::invalid_argument
     * on unusable parameters or an empty trace, whatever the warm-up
     * pass throws (rethrown unchanged once every worker has stopped),
     * std::runtime_error when any interval job fails (a stitch with
     * holes is meaningless), and std::logic_error when an exact-mode
     * stitch violates the run invariants.
     */
    SampleReport run(const std::string &config_name,
                     const core::MachineParams &cfg,
                     const trace::Trace &t);

    /** The JSONL config label of interval @p k: "<config>#iv<k>". */
    static std::string intervalConfigName(const std::string &config,
                                          std::size_t k);

  private:
    SampleParams prm;
    unsigned nJobs;
    std::string sinkPath;
    bool sinkPathSet = false;
    std::string resumePath;
    bool resumePathSet = false;
};

} // namespace zbp::sample

#endif // ZBP_SAMPLE_SAMPLE_RUNNER_HH
