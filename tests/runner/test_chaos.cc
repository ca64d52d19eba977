/**
 * @file
 * The chaos sweep: one batch mixing healthy jobs with every failure
 * mode the runner hardens against — a null trace, a corrupted trace
 * file, and a job that outruns its wall-clock budget.  The sweep must
 * complete, report exactly the bad jobs as failures with messages
 * naming each cause, and a resumed rerun must re-execute only the
 * failed jobs.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/runner/job_runner.hh"
#include "zbp/sim/configs.hh"
#include "zbp/trace/trace_io.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"
#include "zbp/workload/suites.hh"

namespace zbp::runner
{
namespace
{

/** Healthy jobs get this many times their measured solo time as the
 * chaos timeout; the long trace below is 250x a healthy one, so it
 * cannot finish inside the budget on any host or build. */
constexpr double kBudgetFactor = 20.0;

/** Wall-clock seconds of the slowest of @p jobs run alone and untimed,
 * best of three so a scheduling hiccup cannot inflate the budget. */
double
slowestHealthySeconds(const std::vector<SimJob> &jobs)
{
    double slowest = 0.0;
    for (const SimJob &job : jobs) {
        double best = 1e30;
        for (int rep = 0; rep < 3; ++rep) {
            JobRunner solo(1);
            solo.setSinkPath("");
            solo.setJobTimeout(0.0);
            const auto r = solo.run({job});
            EXPECT_TRUE(r[0].ok) << r[0].error;
            best = std::min(best, r[0].seconds);
        }
        slowest = std::max(slowest, best);
    }
    return slowest;
}

/** A trace whose simulation takes far longer than the chaos timeout,
 * so the watchdog provably kills it rather than racing completion. */
trace::Trace
longTrace()
{
    workload::BuildParams bp;
    bp.seed = 21;
    bp.numFunctions = 120;
    const auto prog = workload::buildProgram(bp);
    workload::GenParams gp;
    gp.seed = 22;
    gp.length = 4'000'000;
    return workload::generateTrace(prog, gp, "chaos-long");
}

TEST(ChaosSweep, MixedFailureSweepCompletesAndResumeReRunsOnlyFailures)
{
    const auto healthy1 =
            workload::makeSuiteTrace(workload::findSuite("cb84"), 0.01);
    const auto healthy2 =
            workload::makeSuiteTrace(workload::findSuite("tpf"), 0.01);
    const auto hanging = longTrace();

    const std::string corruptPath =
            ::testing::TempDir() + "/zbp_chaos_corrupt.zbpt";
    {
        std::ofstream os(corruptPath, std::ios::binary);
        os << "ZBPX garbage that is definitely not a trace";
    }
    const std::string sink1 =
            ::testing::TempDir() + "/zbp_chaos_first.jsonl";
    const std::string sink2 =
            ::testing::TempDir() + "/zbp_chaos_second.jsonl";
    std::remove(sink1.c_str());
    std::remove(sink2.c_str());

    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("healthy-a", sim::configNoBtb2(), &healthy1));
    jobs.push_back(SimJob("null-trace", sim::configNoBtb2(), nullptr));
    SimJob corrupt;
    corrupt.configName = "corrupt-trace";
    corrupt.cfg = sim::configNoBtb2();
    corrupt.tracePath = corruptPath;
    jobs.push_back(corrupt);
    jobs.push_back(SimJob("hanging", sim::configBtb2(), &hanging));
    jobs.push_back(SimJob("healthy-b", sim::configBtb2(), &healthy2));

    // The budget scales with this host and build (an instrumented
    // build is slower on every job alike), not a fixed wall-clock.
    const double budget =
            kBudgetFactor * slowestHealthySeconds({jobs[0], jobs[4]});

    JobRunner chaos(4);
    chaos.setSinkPath(sink1);
    chaos.setJobTimeout(budget);
    const auto r1 = chaos.run(jobs);
    ASSERT_EQ(r1.size(), 5u);

    EXPECT_TRUE(r1[0].ok) << r1[0].error;
    EXPECT_TRUE(r1[4].ok) << r1[4].error;
    EXPECT_FALSE(r1[1].ok);
    EXPECT_NE(r1[1].error.find("no trace"), std::string::npos)
            << r1[1].error;
    EXPECT_FALSE(r1[2].ok);
    EXPECT_NE(r1[2].error.find("magic"), std::string::npos)
            << r1[2].error;
    EXPECT_FALSE(r1[3].ok);
    EXPECT_NE(r1[3].error.find("timed out"), std::string::npos)
            << r1[3].error;

    // Repair the failure causes without changing any job identity:
    // give the null-trace job a trace, replace the corrupt file with a
    // valid one, lift the timeout so the long job can finish.
    jobs[1].trace = &healthy2;
    trace::saveTraceFile(healthy2, corruptPath);

    JobRunner retry(4);
    retry.setSinkPath(sink2);
    retry.setResumePath(sink1);
    retry.setJobTimeout(0.0); // disabled
    const auto r2 = retry.run(jobs);
    std::remove(corruptPath.c_str());
    ASSERT_EQ(r2.size(), 5u);

    // The healthy jobs are satisfied from the checkpoint; only the
    // three former failures actually execute, and all now succeed.
    EXPECT_TRUE(r2[0].resumed);
    EXPECT_TRUE(r2[4].resumed);
    for (const std::size_t i : {1u, 2u, 3u}) {
        EXPECT_FALSE(r2[i].resumed) << i;
        EXPECT_TRUE(r2[i].ok) << i << ": " << r2[i].error;
        EXPECT_GT(r2[i].result.cycles, 0u) << i;
    }
    EXPECT_EQ(r2[0].result.cycles, r1[0].result.cycles);
    EXPECT_EQ(r2[0].result.cpi, r1[0].result.cpi);
    EXPECT_EQ(r2[4].result.cycles, r1[4].result.cycles);

    // The second sink holds records only for the jobs that ran.
    std::ifstream is(sink2);
    std::string line;
    std::size_t lines = 0;
    while (std::getline(is, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 3u);
    std::remove(sink1.c_str());
    std::remove(sink2.c_str());
}

TEST(ChaosSweep, TimeoutFailureRecordsElapsedAndIsNotRetried)
{
    const auto hanging = longTrace();
    std::vector<SimJob> jobs;
    jobs.push_back(SimJob("hang", sim::configNoBtb2(), &hanging));

    JobRunner jr(1);
    jr.setSinkPath("");
    jr.setJobTimeout(0.05);
    jr.setRetries(3); // must be ignored: a timeout is not transient
    const auto res = jr.run(jobs);
    ASSERT_EQ(res.size(), 1u);
    EXPECT_FALSE(res[0].ok);
    EXPECT_EQ(res[0].attempts, 1u);
    EXPECT_NE(res[0].error.find("timed out"), std::string::npos)
            << res[0].error;
    // The job was cut down near its budget, not run to completion.
    EXPECT_GE(res[0].seconds, 0.05);
    EXPECT_LT(res[0].seconds, 5.0);
}

} // namespace
} // namespace zbp::runner
