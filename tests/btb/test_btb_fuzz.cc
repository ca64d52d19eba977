/**
 * @file
 * Oracle-based fuzz test for the set-associative BTB: random
 * install/lookup/invalidate/touch sequences are checked against a
 * simple map + recency-list reference model.  This pins down the LRU
 * semantics the semi-exclusive hierarchy depends on.
 */

#include <list>
#include <map>
#include <optional>

#include <gtest/gtest.h>

#include "zbp/btb/set_assoc_btb.hh"
#include "zbp/common/rng.hh"

namespace zbp::btb
{
namespace
{

/** Trivial reference model: per-row recency lists over full addresses. */
class OracleBtb
{
  public:
    OracleBtb(std::uint32_t rows, std::uint32_t ways,
              std::uint32_t row_bytes)
        : rows_(rows), ways_(ways), rowBytes(row_bytes)
    {
    }

    std::uint32_t rowOf(Addr ia) const
    {
        return static_cast<std::uint32_t>((ia / rowBytes) % rows_);
    }

    std::optional<Addr>
    install(Addr ia, Addr target)
    {
        auto &row = recency[rowOf(ia)];
        for (auto it = row.begin(); it != row.end(); ++it) {
            if (it->first == ia) {
                it->second = target;
                row.splice(row.end(), row, it); // make MRU
                return std::nullopt;
            }
        }
        std::optional<Addr> victim;
        if (row.size() >= ways_) {
            victim = row.front().first;
            row.pop_front();
        }
        row.emplace_back(ia, target);
        return victim;
    }

    std::optional<Addr>
    lookup(Addr ia) const
    {
        const auto it = recency.find(rowOf(ia));
        if (it == recency.end())
            return std::nullopt;
        for (const auto &[a, t] : it->second)
            if (a == ia)
                return t;
        return std::nullopt;
    }

    bool
    invalidate(Addr ia)
    {
        auto &row = recency[rowOf(ia)];
        for (auto it = row.begin(); it != row.end(); ++it) {
            if (it->first == ia) {
                row.erase(it);
                return true;
            }
        }
        return false;
    }

    void
    touch(Addr ia)
    {
        auto &row = recency[rowOf(ia)];
        for (auto it = row.begin(); it != row.end(); ++it) {
            if (it->first == ia) {
                row.splice(row.end(), row, it);
                return;
            }
        }
    }

    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto &[_, row] : recency)
            n += row.size();
        return n;
    }

  private:
    std::uint32_t rows_, ways_, rowBytes;
    /** row -> (address, target), front = LRU. */
    std::map<std::uint32_t, std::list<std::pair<Addr, Addr>>> recency;
};

class BtbFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BtbFuzz, AgreesWithOracle)
{
    constexpr std::uint32_t kRows = 16, kWays = 3, kRowBytes = 32;
    SetAssocBtb dut("fuzz", BtbConfig{kRows, kWays, kRowBytes, 40});
    OracleBtb oracle(kRows, kWays, kRowBytes);
    Rng rng(GetParam());

    // Address pool: 2-byte aligned addresses across several row wraps
    // so rows have real contention.
    auto draw_addr = [&rng] { return Addr{rng.below(4096)} * 2; };

    for (int step = 0; step < 5000; ++step) {
        const auto op = rng.below(100);
        const Addr ia = draw_addr();
        if (op < 50) {
            const Addr tgt = draw_addr() + 0x100000;
            const auto v_dut =
                    dut.install(BtbEntry::freshTaken(ia, tgt));
            const auto v_oracle = oracle.install(ia, tgt);
            ASSERT_EQ(v_dut.has_value(), v_oracle.has_value())
                    << "step " << step;
            if (v_dut) {
                ASSERT_EQ(v_dut->ia, *v_oracle) << "step " << step;
            }
        } else if (op < 80) {
            const auto h = dut.lookup(ia);
            const auto o = oracle.lookup(ia);
            ASSERT_EQ(h.has_value(), o.has_value()) << "step " << step;
            if (h) {
                ASSERT_EQ(h->entry.target, *o) << "step " << step;
                // A lookup in the reference doesn't touch; DUT lookup
                // doesn't either.
            }
        } else if (op < 90) {
            ASSERT_EQ(dut.invalidate(ia), oracle.invalidate(ia))
                    << "step " << step;
        } else {
            dut.touch(ia);
            oracle.touch(ia);
        }
        if (step % 512 == 0) {
            ASSERT_EQ(dut.validCount(), oracle.size()) << "step " << step;
        }
    }
    EXPECT_EQ(dut.validCount(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BtbFuzz,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 34ull));

} // namespace
} // namespace zbp::btb
