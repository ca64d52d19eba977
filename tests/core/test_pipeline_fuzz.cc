/**
 * @file
 * Invariant fuzzing of the lookahead search pipeline over random BTB
 * contents: predictions must reference installed branches (no phantoms
 * with full tags), follow the predicted path, respect broadcast
 * latencies, and never exceed the queue cap.
 */

#include <unordered_map>

#include <gtest/gtest.h>

#include "zbp/common/rng.hh"
#include "zbp/core/search_pipeline.hh"

namespace zbp::core
{
namespace
{

class PipelineFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(PipelineFuzz, InvariantsHoldOverRandomContents)
{
    Rng rng(GetParam());
    core::MachineParams mp;
    BranchPredictorHierarchy bp(mp);

    // Random branch population in a 64 KB code window; targets also in
    // the window so the search keeps finding work.
    std::unordered_map<Addr, Addr> branches;
    for (int i = 0; i < 400; ++i) {
        const Addr ia = rng.below(0x10000) & ~Addr{1};
        const Addr tgt = rng.below(0x10000) & ~Addr{1};
        auto e = btb::BtbEntry::freshTaken(ia, tgt);
        if (rng.chance(0.3))
            e.dir.set(Bimodal2::kWeakNotTaken);
        bp.btb1().install(e);
    }
    // The survivors after LRU contention are what can be predicted.
    // (Collect them by probing.)
    for (Addr ia = 0; ia < 0x10000; ia += 2)
        if (auto h = bp.btb1().lookup(ia))
            branches[ia] = h->entry.target;

    SearchParams sp;
    SearchPipeline pipe(sp, bp, nullptr);
    pipe.restart(rng.below(0x10000) & ~Addr{1}, 0);

    std::uint64_t last_seq = 0;
    Cycle last_avail_check = 0;
    (void)last_avail_check;
    for (Cycle c = 0; c < 4000; ++c) {
        pipe.tick(c);
        ASSERT_LE(pipe.queue().size(), sp.maxQueuedPredictions);
        while (!pipe.queue().empty()) {
            const Prediction p = pipe.queue().front();
            pipe.queue().pop_front();

            // Monotonic sequence numbers.
            ASSERT_GT(p.seq, last_seq);
            last_seq = p.seq;

            // Broadcasts never predate their search (b4 minimum).
            ASSERT_GE(p.availableAt, 4u);

            // Full tags: every prediction maps to an installed branch.
            const auto it = branches.find(p.ia);
            ASSERT_NE(it, branches.end())
                    << "phantom prediction at " << std::hex << p.ia;
            if (p.taken && !p.usedCtb) {
                ASSERT_EQ(p.target, it->second);
            }
        }
        // Occasional restarts, as decode would do.
        if (rng.chance(0.01))
            pipe.restart(rng.below(0x10000) & ~Addr{1}, c);
    }
    EXPECT_GT(last_seq, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineFuzz,
                         ::testing::Range<std::uint64_t>(1, 9));

} // namespace
} // namespace zbp::core
