/**
 * @file
 * Tests for gang-chunked sweep execution.  The load-bearing property is
 * bit-identity: interleaving N configurations over one trace in chunks
 * of any size must produce exactly the results of N independent serial
 * runs — same cycles, same outcome taxonomy, same machinery counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "zbp/sim/gang_runner.hh"
#include "zbp/sim/simulator.hh"
#include "zbp/workload/generator.hh"
#include "zbp/workload/program_builder.hh"

namespace zbp::sim
{
namespace
{

void
expectSameResult(const cpu::SimResult &a, const cpu::SimResult &b)
{
    EXPECT_EQ(a.traceName, b.traceName);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_DOUBLE_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.correct, b.correct);
    EXPECT_EQ(a.mispredictDir, b.mispredictDir);
    EXPECT_EQ(a.mispredictTarget, b.mispredictTarget);
    EXPECT_EQ(a.surpriseCompulsory, b.surpriseCompulsory);
    EXPECT_EQ(a.surpriseLatency, b.surpriseLatency);
    EXPECT_EQ(a.surpriseCapacity, b.surpriseCapacity);
    EXPECT_EQ(a.surpriseBenign, b.surpriseBenign);
    EXPECT_EQ(a.phantoms, b.phantoms);
    EXPECT_EQ(a.icacheMisses, b.icacheMisses);
    EXPECT_EQ(a.dcacheMisses, b.dcacheMisses);
    EXPECT_EQ(a.dataAccesses, b.dataAccesses);
    EXPECT_EQ(a.btb1MissReports, b.btb1MissReports);
    EXPECT_EQ(a.btb2RowReads, b.btb2RowReads);
    EXPECT_EQ(a.btb2Transfers, b.btb2Transfers);
    EXPECT_EQ(a.btb2FullSearches, b.btb2FullSearches);
    EXPECT_EQ(a.btb2PartialSearches, b.btb2PartialSearches);
    EXPECT_EQ(a.predictionsMade, b.predictionsMade);
    EXPECT_EQ(a.resolves, b.resolves);
}

std::vector<GangConfig>
fig2Gang()
{
    return {{"config1", configNoBtb2()},
            {"config2", configBtb2()},
            {"config3", configLargeBtb1()}};
}

std::vector<trace::TraceHandle>
smallTraces()
{
    std::vector<trace::TraceHandle> out;
    for (const char *name : {"cb84", "tpf"})
        out.push_back(workload::suiteTraceHandle(
                workload::findSuite(name), 0.01));
    return out;
}

std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t lines = 0;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            ++lines;
    return lines;
}

TEST(GangRunner, BitIdenticalToSerialAcrossChunkSizes)
{
    const auto traces = smallTraces();
    const auto gang = fig2Gang();

    // Serial reference: independent full runs.
    std::vector<std::vector<cpu::SimResult>> ref(gang.size());
    for (std::size_t ci = 0; ci < gang.size(); ++ci)
        for (const auto &t : traces)
            ref[ci].push_back(runOne(gang[ci].cfg, *t));

    for (const std::size_t chunk : {std::size_t{1}, std::size_t{1000},
                                    std::size_t{1} << 30}) {
        GangRunner runner(gang, 1);
        runner.setChunk(chunk);
        runner.setSinkPath("");
        const auto got = runner.run(traces);
        ASSERT_EQ(got.size(), gang.size());
        for (std::size_t ci = 0; ci < gang.size(); ++ci) {
            ASSERT_EQ(got[ci].size(), traces.size());
            for (std::size_t ti = 0; ti < traces.size(); ++ti) {
                ASSERT_TRUE(got[ci][ti].ok)
                        << got[ci][ti].error << " (chunk " << chunk
                        << ")";
                expectSameResult(got[ci][ti].result, ref[ci][ti]);
            }
        }
    }
}

TEST(GangRunner, FailingMemberDoesNotSinkTheGang)
{
    auto gang = fig2Gang();
    gang[1].name = "broken";
    gang[1].cfg.btb1.rows = 3; // not a power of two: ctor rejects

    GangRunner runner(gang, 1);
    runner.setSinkPath("");
    const auto traces = smallTraces();
    const auto got = runner.run(traces);

    for (std::size_t ti = 0; ti < traces.size(); ++ti) {
        EXPECT_TRUE(got[0][ti].ok) << got[0][ti].error;
        EXPECT_TRUE(got[2][ti].ok) << got[2][ti].error;
        EXPECT_FALSE(got[1][ti].ok);
        EXPECT_NE(got[1][ti].error.find("power of two"),
                  std::string::npos)
                << got[1][ti].error;
    }
}

TEST(GangRunner, WritesOneRecordPerConfigTracePair)
{
    const std::string path =
            testing::TempDir() + "gang_records.jsonl";
    std::remove(path.c_str());

    GangRunner runner(fig2Gang(), 1);
    runner.setSinkPath(path);
    const auto traces = smallTraces();
    runner.run(traces);

    EXPECT_EQ(countLines(path), 3 * traces.size());
    std::remove(path.c_str());
}

TEST(GangRunner, MemberOverItsTimeoutFailsAloneAndResumeRerunsIt)
{
    // Two gangs of the 3 fig2 configs: a short suite trace and a
    // generated one 250x as long.  The budget is 20x the slowest short
    // member's measured busy time (best of three untimed runs), so only
    // the long trace's members can outrun it, on any host or build.
    const auto gang = fig2Gang();
    const auto shortTrace =
            workload::suiteTraceHandle(workload::findSuite("cb84"), 0.01);
    workload::BuildParams bp;
    bp.seed = 21;
    bp.numFunctions = 120;
    workload::GenParams gp;
    gp.seed = 22;
    gp.length = 250 * shortTrace->size();
    const trace::Trace longTrace = workload::generateTrace(
            workload::buildProgram(bp), gp, "gang-long");

    double healthy = 1e30;
    for (int rep = 0; rep < 3; ++rep) {
        GangRunner probe(gang, 1);
        probe.setSinkPath("");
        probe.setJobTimeout(0.0);
        const auto r = probe.run({shortTrace});
        double slowest = 0.0;
        for (const auto &cell : r) {
            ASSERT_TRUE(cell[0].ok) << cell[0].error;
            slowest = std::max(slowest, cell[0].seconds);
        }
        healthy = std::min(healthy, slowest);
    }
    const double budget = 20.0 * healthy;

    const std::string sink1 = testing::TempDir() + "gang_timeout_a.jsonl";
    const std::string sink2 = testing::TempDir() + "gang_timeout_b.jsonl";
    std::remove(sink1.c_str());
    std::remove(sink2.c_str());
    const std::vector<trace::TraceHandle> traces = {
            trace::borrowTrace(longTrace), shortTrace};

    GangRunner runner(gang, 1);
    runner.setSinkPath(sink1);
    runner.setJobTimeout(budget);
    const auto got = runner.run(traces);
    for (std::size_t ci = 0; ci < gang.size(); ++ci) {
        EXPECT_FALSE(got[ci][0].ok) << gang[ci].name;
        EXPECT_NE(got[ci][0].error.find("timed out"), std::string::npos)
                << got[ci][0].error;
        ASSERT_TRUE(got[ci][1].ok) << got[ci][1].error;
        expectSameResult(got[ci][1].result,
                         runOne(gang[ci].cfg, *shortTrace));
    }
    EXPECT_EQ(countLines(sink1), 2 * gang.size());

    // Resume: the short trace's cells come from the first sink; only
    // the failed long-trace cells run again (and time out again).
    GangRunner again(gang, 1);
    again.setSinkPath(sink2);
    again.setResumePath(sink1);
    again.setJobTimeout(budget);
    const auto rerun = again.run(traces);
    for (std::size_t ci = 0; ci < gang.size(); ++ci) {
        EXPECT_FALSE(rerun[ci][0].resumed) << gang[ci].name;
        EXPECT_FALSE(rerun[ci][0].ok) << gang[ci].name;
        EXPECT_TRUE(rerun[ci][1].resumed) << gang[ci].name;
        EXPECT_EQ(rerun[ci][1].result.cycles, got[ci][1].result.cycles);
    }
    EXPECT_EQ(countLines(sink2), gang.size());
    std::remove(sink1.c_str());
    std::remove(sink2.c_str());
}

} // namespace
} // namespace zbp::sim
