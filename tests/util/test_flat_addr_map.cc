/**
 * @file
 * Tests for the key-ordered address book (util/flat_addr_map.hh):
 * random assign/find/save/load interleavings against std::map and
 * std::set, the canonical (ascending) image across incremental saves,
 * and restores of non-canonical images — out-of-order and repeated
 * keys must give what the hash containers the book replaced gave
 * (repeats collapse, a map keeps the last value) and re-save in
 * canonical order.  The same restore contract is checked through the
 * book's set and map owners, OutcomeTracker and ICache.
 */

#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "zbp/cache/icache.hh"
#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/rng.hh"
#include "zbp/cpu/outcome.hh"
#include "zbp/util/flat_addr_map.hh"

namespace zbp
{
namespace
{

using Map = FlatAddrMap<std::uint64_t>;
using Entries = std::vector<std::pair<Addr, std::uint64_t>>;

/** The bytes of one section holding @p book's image. */
template <typename Book>
std::vector<std::uint8_t>
imageOf(const Book &book)
{
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kJob);
    book.template save<std::uint64_t>(w);
    w.endSection();
    w.finish();
    return w.bytes();
}

/** A section image written entry by entry, in the given order. */
std::vector<std::uint8_t>
rawImage(const Entries &entries, bool with_values)
{
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kJob);
    w.putU64(entries.size());
    for (const auto &[k, v] : entries) {
        w.putU64(k);
        if (with_values)
            w.putU64(v);
    }
    w.endSection();
    w.finish();
    return w.bytes();
}

/** The canonical image of a reference map (ascending, one per key). */
std::vector<std::uint8_t>
referenceImage(const std::map<Addr, std::uint64_t> &ref)
{
    return rawImage(Entries(ref.begin(), ref.end()), true);
}

std::vector<std::uint8_t>
referenceImage(const std::set<Addr> &ref)
{
    Entries e;
    for (const Addr k : ref)
        e.emplace_back(k, 0);
    return rawImage(e, false);
}

template <typename Book>
void
loadImage(Book &book, const std::vector<std::uint8_t> &img)
{
    ckpt::Reader r(img.data(), img.size());
    r.openSection(ckpt::tag::kJob);
    book.template load<std::uint64_t>(r);
    r.closeSection();
    r.finish();
}

/** A key drawn from a small pool (repeats, overwrites), a clustered
 * range (shared high bytes, as block numbers have) or anywhere. */
Addr
randomKey(Rng &rng)
{
    switch (rng.below(3)) {
      case 0:
        return rng.below(64) * 0x1000;
      case 1:
        return 0x7f0000000000ull + rng.below(1 << 20);
      default:
        return rng.next();
    }
}

void
expectSame(const Map &book, const std::map<Addr, std::uint64_t> &ref,
           Rng &rng)
{
    ASSERT_EQ(book.size(), ref.size());
    for (const auto &[k, v] : ref) {
        const std::uint64_t *got = book.find(k);
        ASSERT_NE(got, nullptr) << k;
        EXPECT_EQ(*got, v);
    }
    for (int i = 0; i < 32; ++i) {
        const Addr k = randomKey(rng);
        EXPECT_EQ(book.find(k) != nullptr, ref.count(k) == 1) << k;
    }
}

TEST(FlatAddrMap, RandomInterleavingsMatchStdMap)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        Map book(rng.below(2) == 0 ? 1 : 64);
        std::map<Addr, std::uint64_t> ref;
        for (int op = 0; op < 3000; ++op) {
            const unsigned what = rng.below(100);
            if (what < 80) {
                const Addr k = randomKey(rng);
                const std::uint64_t v = rng.next();
                const bool fresh = ref.count(k) == 0;
                ref[k] = v;
                EXPECT_EQ(book.assign(k, v), fresh);
            } else if (what < 90) {
                const Addr k = randomKey(rng);
                const std::uint64_t *got = book.find(k);
                const auto it = ref.find(k);
                ASSERT_EQ(got != nullptr, it != ref.end());
                if (got != nullptr) {
                    EXPECT_EQ(*got, it->second);
                }
            } else if (what < 97) {
                // Save: the image is canonical whatever was added since
                // the previous save.
                ASSERT_EQ(imageOf(book), referenceImage(ref));
            } else if (what < 99) {
                // Restore into a fresh book, which then carries on.
                Map other;
                loadImage(other, imageOf(book));
                book = std::move(other);
                expectSame(book, ref, rng);
            } else {
                book.clear();
                ref.clear();
            }
        }
        expectSame(book, ref, rng);
        EXPECT_EQ(imageOf(book), referenceImage(ref));
    }
}

TEST(FlatAddrMap, SetInterleavingsMatchStdSet)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed * 7919);
        FlatAddrSet book;
        std::set<Addr> ref;
        for (int op = 0; op < 3000; ++op) {
            const unsigned what = rng.below(100);
            const Addr k = randomKey(rng);
            if (what < 90) {
                EXPECT_EQ(book.insert(k), ref.insert(k).second);
            } else if (what < 97) {
                ASSERT_EQ(imageOf(book), referenceImage(ref));
            } else {
                FlatAddrSet other;
                loadImage(other, imageOf(book));
                book = std::move(other);
            }
        }
        EXPECT_EQ(book.size(), ref.size());
        EXPECT_EQ(imageOf(book), referenceImage(ref));
    }
}

TEST(FlatAddrMap, NonCanonicalMapImageCollapsesAndResavesCanonically)
{
    // Out of order, with key 0x30 three times: the last value wins.
    const Entries raw = {{0x30, 1}, {0x10, 2}, {0x30, 3}, {0x20, 4},
                         {0x00, 5}, {0x30, 6}, {0x10, 7}};
    std::map<Addr, std::uint64_t> ref;
    for (const auto &[k, v] : raw)
        ref[k] = v; // what unordered_map::operator[] restored
    Map book;
    loadImage(book, rawImage(raw, true));
    Rng rng(5);
    expectSame(book, ref, rng);
    EXPECT_EQ(imageOf(book), referenceImage(ref));
    // The canonical order survives further inserts.
    book.assign(0x15, 8);
    ref[0x15] = 8;
    EXPECT_EQ(imageOf(book), referenceImage(ref));
}

TEST(FlatAddrMap, AscendingImageWithRepeatStillCollapses)
{
    // Ascending but for an equal neighbour, which collapses to its
    // last value.
    const Entries raw = {{0x10, 1}, {0x20, 2}, {0x20, 3}, {0x40, 4}};
    Map book;
    loadImage(book, rawImage(raw, true));
    const std::map<Addr, std::uint64_t> ref = {
            {0x10, 1}, {0x20, 3}, {0x40, 4}};
    Rng rng(6);
    expectSame(book, ref, rng);
    EXPECT_EQ(imageOf(book), referenceImage(ref));
}

TEST(FlatAddrMap, NonCanonicalSetImageCollapsesAndResavesCanonically)
{
    const Entries raw = {{9, 0}, {3, 0}, {9, 0}, {1, 0}, {3, 0}};
    FlatAddrSet book;
    loadImage(book, rawImage(raw, false));
    EXPECT_EQ(book.size(), 3u);
    EXPECT_EQ(imageOf(book), referenceImage(std::set<Addr>{1, 3, 9}));
}

TEST(FlatAddrMap, TruncatedImageThrows)
{
    // Claim three entries where the section holds two.
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kJob);
    w.putU64(3);
    w.putU64(1);
    w.putU64(2);
    w.putU64(3);
    w.putU64(4);
    w.endSection();
    w.finish();
    Map book;
    EXPECT_THROW(loadImage(book, w.bytes()), ckpt::CkptError);
}

/** An outcomes section holding counters and the seen set as given. */
std::vector<std::uint8_t>
outcomeImage(const std::vector<Addr> &seen)
{
    ckpt::Writer w;
    w.beginSection(ckpt::tag::kOutcomes);
    for (int i = 0; i < 8; ++i)
        w.putU64(static_cast<std::uint64_t>(i));
    w.putU64(28);
    w.putU64(seen.size());
    for (const Addr a : seen)
        w.putU64(a);
    w.endSection();
    w.finish();
    return w.bytes();
}

TEST(FlatAddrMapOwners, OutcomeTrackerRestoresNonCanonicalSeenSet)
{
    const std::vector<std::uint8_t> img =
            outcomeImage({0x400, 0x100, 0x400, 0x200});
    cpu::OutcomeTracker t;
    ckpt::Reader r(img.data(), img.size());
    t.restoreState(r);
    r.finish();
    EXPECT_TRUE(t.seenBefore(0x100));
    EXPECT_TRUE(t.seenBefore(0x200));
    EXPECT_TRUE(t.seenBefore(0x400));
    ckpt::Writer w;
    t.saveState(w);
    w.finish();
    EXPECT_EQ(w.bytes(), outcomeImage({0x100, 0x200, 0x400}));
    EXPECT_FALSE(t.seenBefore(0x300)); // now seen: appended in order
    ckpt::Writer w2;
    t.saveState(w2);
    w2.finish();
    EXPECT_EQ(w2.bytes(), outcomeImage({0x100, 0x200, 0x300, 0x400}));
}

/** An I-cache section: the image of the empty-booked cache @p fresh
 * with its block-miss book written entry by entry from @p blocks. */
std::vector<std::uint8_t>
icacheImage(const cache::ICache &fresh, const Entries &blocks)
{
    ckpt::Writer w;
    fresh.saveState(w);
    w.finish();
    const std::uint8_t *p = w.bytes().data() + 8 + 4; // header, tag
    const auto len = static_cast<std::size_t>(ckpt::loadLe<std::uint64_t>(p));
    // An empty book: the payload ends with its u64 count (0) and the
    // two u64 hit/miss counters.
    const std::size_t prefix = len - 24;
    ckpt::Writer out;
    out.beginSection(ckpt::tag::kICache);
    out.putBytes(p, prefix);
    out.putU64(blocks.size());
    for (const auto &[block, cycle] : blocks) {
        out.putU64(block);
        out.putU64(cycle);
    }
    out.putBytes(p + prefix + 8, 16);
    out.endSection();
    out.finish();
    return out.bytes();
}

TEST(FlatAddrMapOwners, ICacheRestoresNonCanonicalBlockBook)
{
    cache::ICacheParams prm;
    prm.sizeBytes = 2048;
    prm.ways = 2;
    prm.missRecordTtl = 1000;
    const cache::ICache fresh(prm);
    const std::vector<std::uint8_t> img = icacheImage(
            fresh, {{5, 100}, {2, 50}, {5, 70}, {1, 10}, {2, 50}});
    cache::ICache c(prm);
    ckpt::Reader r(img.data(), img.size());
    c.restoreState(r);
    r.finish();
    // Block 5 keeps its last cycle, 70, not 100.
    EXPECT_TRUE(c.blockMissedRecently(Addr{5} << 12, 70));
    EXPECT_FALSE(c.blockMissedRecently(Addr{5} << 12, 69));
    EXPECT_TRUE(c.blockMissedRecently(Addr{1} << 12, 10));
    EXPECT_FALSE(c.blockMissedRecently(Addr{3} << 12, 10));
    ckpt::Writer w;
    c.saveState(w);
    w.finish();
    EXPECT_EQ(w.bytes(), icacheImage(fresh, {{1, 10}, {2, 50}, {5, 70}}));
}

} // namespace
} // namespace zbp
