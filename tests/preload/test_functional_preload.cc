/**
 * @file
 * Randomized equivalence of Btb2Engine::functionalPreload against the
 * row-by-row bulk read it replaced, kept here as the reference: every
 * row of the block (full search, in SOT sector order) or of the miss
 * sector (partial search) is read through SetAssocBtb::readRow, each
 * hit installed into the BTBP and, semi-exclusively, demoted in the
 * BTB2.  Two identical rigs take the same random BTB2 contents (aliasing
 * tags in one row, stale row-signature bits from invalidated entries),
 * SOT patterns and I-cache misses.  After every preload the BTBP (with
 * its LRU), the SOT hit/miss books and (up to 1024 rows; else every 50
 * preloads) the BTB2 with its LRU must be byte-identical, and the
 * engine's row-read, hit and search counters must equal the
 * reference's tallies.
 */

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/btb/set_assoc_btb.hh"
#include "zbp/cache/icache.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/rng.hh"
#include "zbp/preload/btb2_engine.hh"

namespace zbp::preload
{
namespace
{

struct Rig
{
    Rig(const btb::BtbConfig &btb2_cfg, const Btb2EngineParams &p)
        : btb2("btb2", btb2_cfg),
          btbp("btbp", btb::btbpConfig()),
          sot(SotParams{}),
          icache(cache::ICacheParams{}),
          engine(p, btb2, btbp, sot, icache)
    {
    }

    btb::SetAssocBtb btb2;
    btb::SetAssocBtb btbp;
    SectorOrderTable sot;
    cache::ICache icache;
    Btb2Engine engine;
};

/** The reference's counter tallies. */
struct Tally
{
    std::uint64_t rowReads = 0;
    std::uint64_t hits = 0;
    std::uint64_t full = 0;
    std::uint64_t partial = 0;
};

/** The row-by-row functional bulk read functionalPreload replaced. */
void
referencePreload(Rig &r, const Btb2EngineParams &prm, Addr miss_addr,
                 Cycle now, Tally &t)
{
    const bool ic_valid = prm.icacheFilter
            ? r.icache.blockMissedRecently(miss_addr, now)
            : true;
    const std::uint32_t row_bytes = r.btb2.config().rowBytes;
    const unsigned rows = kSectorBytes / row_bytes;
    const auto readRowNow = [&](Addr row_addr) {
        ++t.rowReads;
        for (const auto &h : r.btb2.readRow(row_addr)) {
            r.btbp.install(h.entry);
            ++t.hits;
            if (prm.semiExclusive)
                r.btb2.demote(h.row, h.way);
        }
    };
    if (ic_valid) {
        ++t.full;
        const SectorOrder order = r.sot.order(miss_addr);
        const Addr base = blockOf(miss_addr) << 12;
        for (unsigned i = 0; i < kSectorsPerBlock; ++i) {
            const Addr sector_base =
                    base + Addr{order.sectors[i]} * kSectorBytes;
            for (unsigned k = 0; k < rows; ++k)
                readRowNow(sector_base + Addr{k} * row_bytes);
        }
    } else {
        ++t.partial;
        const Addr sector_base = alignDown(miss_addr, kSectorBytes);
        for (unsigned k = 0; k < rows * prm.partialSectors; ++k)
            readRowNow(sector_base + Addr{k} * row_bytes);
    }
}

template <typename T>
std::vector<std::uint8_t>
imageOf(const T &x)
{
    ckpt::Writer w;
    x.saveState(w);
    w.finish();
    return w.bytes();
}

struct Case
{
    std::string name;
    btb::BtbConfig btb2;
    bool semiExclusive;
    unsigned partialSectors;
};

std::vector<Case>
cases()
{
    std::vector<btb::BtbConfig> geoms;
    // The Fig. 5 BTB2 sizes (x 6 ways, 32 B rows).
    for (const std::uint32_t rows : {1024u, 2048u, 4096u, 8192u, 16384u})
        geoms.push_back({rows, 6, 32, 40});
    // Wider congruence classes (§6 future work), and BTB2s smaller than
    // a 4 KB block whose rows wrap around within one block, each lap
    // with its own tag.
    geoms.push_back({4096, 6, 64, 40});
    geoms.push_back({2048, 6, 128, 40});
    geoms.push_back({32, 4, 32, 40});
    geoms.push_back({8, 2, 128, 40});
    // Few tag bits: distinct branches alias to one tag in one row.
    geoms.push_back({1024, 6, 32, 3});
    std::vector<Case> out;
    for (const auto &g : geoms) {
        for (const bool semi : {true, false}) {
            for (const unsigned ps : {1u, 3u}) {
                out.push_back({std::to_string(g.rows) + "x" +
                                       std::to_string(g.ways) + "/" +
                                       std::to_string(g.rowBytes) + "B/t" +
                                       std::to_string(g.tagBits) +
                                       (semi ? "/semi" : "/incl") + "/ps" +
                                       std::to_string(ps),
                               g, semi, ps});
            }
        }
    }
    return out;
}

TEST(FunctionalPreload, MatchesRowByRowReference)
{
    std::uint64_t seed = 0;
    for (const Case &c : cases()) {
        SCOPED_TRACE(c.name);
        Btb2EngineParams prm;
        prm.semiExclusive = c.semiExclusive;
        prm.partialSectors = c.partialSectors;
        Rig a(c.btb2, prm);
        Rig b(c.btb2, prm);
        Tally want;
        Rng rng(++seed);

        // A handful of 4 KB blocks, some a BTB2 span apart so their
        // rows coincide with different tags.
        const Addr span = std::uint64_t{c.btb2.rows} * c.btb2.rowBytes;
        std::vector<Addr> blocks;
        for (int i = 0; i < 6; ++i) {
            const Addr blk = 0x100 + rng.below(64);
            blocks.push_back(blk);
            blocks.push_back(blk + std::max<Addr>(span >> 12, 1) *
                                           (1 + rng.below(3)));
        }
        const auto randomIa = [&] {
            return (blocks[rng.below(blocks.size())] << 12) +
                   rng.below(kBlockBytes / 2) * 2;
        };

        Cycle now = 1000;
        for (int step = 0; step < 400; ++step) {
            // Mutate both rigs the same way between preloads.
            for (int n = static_cast<int>(rng.below(12)); n > 0; --n) {
                const Addr ia = randomIa();
                const auto e = btb::BtbEntry::freshTaken(
                        ia, ia + 0x40 + rng.below(0x1000));
                const bool mru = rng.below(4) != 0;
                a.btb2.install(e, mru);
                b.btb2.install(e, mru);
            }
            if (rng.below(4) == 0) {
                // Leaves the row's signature bit set with no entry.
                const Addr ia = randomIa();
                EXPECT_EQ(a.btb2.invalidate(ia), b.btb2.invalidate(ia));
            }
            for (int n = static_cast<int>(rng.below(6)); n > 0; --n) {
                const Addr ia = randomIa();
                a.sot.instructionCompleted(ia);
                b.sot.instructionCompleted(ia);
            }
            if (rng.below(3) == 0) {
                const Addr ia = randomIa();
                a.icache.access(ia, now);
                b.icache.access(ia, now);
            }

            const Addr miss = randomIa();
            a.engine.functionalPreload(miss, now);
            referencePreload(b, prm, miss, now, want);
            now += 1 + rng.below(400);

            ASSERT_EQ(a.engine.rowReads(), want.rowReads) << step;
            ASSERT_EQ(a.engine.hitsTransferred(), want.hits) << step;
            ASSERT_EQ(a.engine.fullSearchCount(), want.full) << step;
            ASSERT_EQ(a.engine.partialSearchCount(), want.partial) << step;
            ASSERT_TRUE(imageOf(a.btbp) == imageOf(b.btbp)) << step;
            ASSERT_TRUE(imageOf(a.sot) == imageOf(b.sot)) << step;
            // The visiting order shows only where one preload reads a
            // BTB2 row twice (rows wrapping within the block: demote
            // order), so small BTB2s are checked after every preload;
            // the larger images run to megabytes and are checked every
            // 50 preloads.
            if (c.btb2.rows <= 1024 || step % 50 == 49) {
                ASSERT_TRUE(imageOf(a.btb2) == imageOf(b.btb2)) << step;
            }
        }
        // Both search kinds, SOT-steered orders and real transfers
        // were exercised.
        EXPECT_GT(a.sot.hitCount(), 0u);
        EXPECT_GT(want.full, 0u);
        EXPECT_GT(want.partial, 0u);
        EXPECT_GT(want.hits, 0u);
    }
}

} // namespace
} // namespace zbp::preload
