/**
 * @file
 * Tests for the generic sharded executor: worker-count resolution from
 * ZBP_JOBS, completion of every index under parallel execution,
 * index 0 claimed first, and per-job exception capture.
 */

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/runner/executor.hh"

namespace zbp::runner
{
namespace
{

class JobsEnv : public ::testing::Test
{
  protected:
    void SetUp() override { unsetenv("ZBP_JOBS"); }
    void TearDown() override { unsetenv("ZBP_JOBS"); }
};

TEST_F(JobsEnv, DefaultsToHardwareConcurrency)
{
    EXPECT_GE(jobsFromEnv(), 1u);
}

TEST_F(JobsEnv, HonoursValidValue)
{
    setenv("ZBP_JOBS", "7", 1);
    EXPECT_EQ(jobsFromEnv(), 7u);
    EXPECT_EQ(resolveJobs(0), 7u);
}

TEST_F(JobsEnv, ExplicitValueWinsOverEnv)
{
    setenv("ZBP_JOBS", "7", 1);
    EXPECT_EQ(resolveJobs(3), 3u);
}

TEST_F(JobsEnv, RejectsGarbage)
{
    for (const char *bad : {"0", "-2", "abc", "4x", ""}) {
        setenv("ZBP_JOBS", bad, 1);
        EXPECT_GE(jobsFromEnv(), 1u) << "ZBP_JOBS=" << bad;
    }
}

TEST(ParallelExecutor, RunsEveryIndexExactlyOnce)
{
    constexpr std::size_t kN = 200;
    std::vector<std::atomic<int>> hits(kN);
    ParallelExecutor exec(8);
    const auto failures = exec.run(kN, [&](std::size_t i) {
        hits[i].fetch_add(1);
    });
    EXPECT_TRUE(failures.empty());
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutor, SingleWorkerRunsInline)
{
    // With one worker the executor must not spawn threads: jobs run in
    // index order on the calling thread.
    std::vector<std::size_t> order;
    ParallelExecutor exec(1);
    exec.run(10, [&](std::size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelExecutor, IndexZeroStartsBeforeJobsThatWaitOnIt)
{
    // Every job but 0 blocks until job 0 has started.  Index 0 is
    // claimed before any other index, so the worker holding it is never
    // one of the blocked ones and the batch completes for every pool
    // size, even with far more jobs than workers.
    for (const unsigned workers : {2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(workers);
        for (int rep = 0; rep < 20; ++rep) {
            constexpr std::size_t kN = 24;
            std::mutex mu;
            std::condition_variable cv;
            bool zero_started = false;
            std::atomic<int> timed_out{0};
            std::atomic<std::size_t> started_before_zero{0};
            ParallelExecutor exec(workers);
            const auto failures = exec.run(kN, [&](std::size_t i) {
                std::unique_lock<std::mutex> lock(mu);
                if (i == 0) {
                    zero_started = true;
                    cv.notify_all();
                    return;
                }
                if (!zero_started)
                    started_before_zero.fetch_add(1);
                if (!cv.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return zero_started; }))
                    timed_out.fetch_add(1);
            });
            EXPECT_TRUE(failures.empty());
            EXPECT_EQ(timed_out.load(), 0);
            // Only jobs already claimed by the other workers can get in
            // ahead of job 0; the rest of the batch is still queued.
            EXPECT_LT(started_before_zero.load(), workers);
        }
    }
}

TEST(ParallelExecutor, CapturesExceptionsAndKeepsGoing)
{
    constexpr std::size_t kN = 64;
    std::vector<std::atomic<int>> hits(kN);
    ParallelExecutor exec(8);
    const auto failures = exec.run(kN, [&](std::size_t i) {
        hits[i].fetch_add(1);
        if (i % 10 == 3)
            throw std::runtime_error("job " + std::to_string(i) +
                                     " exploded");
    });
    // Every job ran, including the ones after throwing jobs.
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    // Failures: 3, 13, 23, 33, 43, 53, 63, sorted by index.
    ASSERT_EQ(failures.size(), 7u);
    for (std::size_t k = 0; k < failures.size(); ++k) {
        EXPECT_EQ(failures[k].index, 10 * k + 3);
        EXPECT_NE(failures[k].message.find("exploded"),
                  std::string::npos);
    }
}

TEST(ParallelExecutor, CapturesNonStdExceptions)
{
    ParallelExecutor exec(2);
    const auto failures = exec.run(3, [](std::size_t i) {
        if (i == 1)
            throw 42; // not a std::exception
    });
    ASSERT_EQ(failures.size(), 1u);
    EXPECT_EQ(failures[0].index, 1u);
    EXPECT_EQ(failures[0].message, "unknown error");
}

TEST(ParallelExecutor, ZeroJobsIsANoOp)
{
    ParallelExecutor exec(4);
    int calls = 0;
    const auto failures = exec.run(0, [&](std::size_t) { ++calls; });
    EXPECT_TRUE(failures.empty());
    EXPECT_EQ(calls, 0);
}

} // namespace
} // namespace zbp::runner
