/**
 * @file
 * Key-ordered address book: the one table behind the simulator's
 * address-keyed sets and maps (seen branches, surprise-install cycles,
 * per-4 KB-block I-cache miss cycles).
 *
 * std::unordered_map pays a heap node per insertion and a pointer chase
 * per lookup, and a hash container hands its entries out in an order a
 * restore does not reproduce, so every snapshot had to collect and
 * re-sort the whole book.  This table keeps
 *
 *  - the entries densely in insertion order (one key array, one value
 *    array), found through an open-addressing index of (key, entry)
 *    slots with linear probing that grows by doubling at 70% load;
 *  - a cached key-ascending order of the first entries.  A save
 *    radix-sorts (ckpt::sortByKey) only the entries added since the
 *    previous save and merges them into the cache, so a fan-out of many
 *    snapshots sorts each key once; a load of an already-ascending image
 *    adopts it as the cache without sorting.
 *
 * Only the operations the simulator needs exist: assign / insert, find,
 * clear, and the checkpoint image (count, then the entries in ascending
 * key order: key u64, value u64 for a map).  There is no erase.
 */

#ifndef ZBP_UTIL_FLAT_ADDR_MAP_HH
#define ZBP_UTIL_FLAT_ADDR_MAP_HH

#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "zbp/ckpt/ckpt.hh"
#include "zbp/common/types.hh"

namespace zbp
{

/** Value type of a FlatAddrMap used as a set (no value storage). */
struct NoValue
{
};

/** Key-ordered address book from Addr to @p V: NoValue for a set,
 * otherwise a u64 value (the checkpoint image stores it as one). */
template <typename V>
class FlatAddrMap
{
  public:
    static constexpr bool kIsSet = std::is_same_v<V, NoValue>;
    static_assert(kIsSet || std::is_same_v<V, std::uint64_t>,
                  "FlatAddrMap values are checkpointed as u64");

    explicit FlatAddrMap(std::size_t min_capacity = 64)
    {
        resetIndex(min_capacity);
    }

    /** Insert or overwrite the value for @p key; true when it is new. */
    bool
    assign(Addr key, const V &value)
    {
        if ((keys.size() + 1) * 10 >= slots.size() * 7)
            resetIndex(slots.size() * 2);
        Slot &s = probe(key);
        if (s.idx == kEmpty) {
            s.key = key;
            s.idx = static_cast<std::uint32_t>(keys.size());
            keys.push_back(key);
            if constexpr (!kIsSet)
                vals.push_back(value);
            return true;
        }
        if constexpr (!kIsSet)
            vals[s.idx] = value;
        return false;
    }

    /** Add @p key to a set; true when it was not present. */
    bool
    insert(Addr key)
        requires kIsSet
    {
        return assign(key, NoValue{});
    }

    /** Pointer to the value for @p key, or nullptr when absent. */
    const V *
    find(Addr key) const
        requires(!kIsSet)
    {
        const Slot &s = probe(key);
        return s.idx == kEmpty ? nullptr : &vals[s.idx];
    }

    void
    clear()
    {
        for (Slot &s : slots)
            s.idx = kEmpty;
        keys.clear();
        vals.clear();
        order.clear();
    }

    std::size_t size() const { return keys.size(); }

    /** Append the image: the entry count as @p Count (u32 or u64), then
     * every entry in ascending key order. */
    template <typename Count>
    void
    save(ckpt::Writer &w) const
    {
        static_assert(std::is_same_v<Count, std::uint32_t> ||
                      std::is_same_v<Count, std::uint64_t>);
        syncOrder();
        if constexpr (std::is_same_v<Count, std::uint32_t>)
            w.putU32(static_cast<std::uint32_t>(order.size()));
        else
            w.putU64(order.size());
        std::uint8_t *p = w.extend(order.size() * kEntryBytes);
        for (const auto &[key, idx] : order) {
            ckpt::storeLe<std::uint64_t>(p, key);
            if constexpr (!kIsSet)
                ckpt::storeLe<std::uint64_t>(p, vals[idx]);
        }
    }

    /**
     * Replace the contents with an image written by save<Count>().  An
     * image in strictly ascending key order (every image save() writes)
     * becomes the cached order as is.  Any other order is accepted as
     * the old hash containers accepted it: a repeated key keeps one
     * entry with its last value, and the next save sorts the whole book.
     */
    template <typename Count>
    void
    load(ckpt::Reader &r)
    {
        static_assert(std::is_same_v<Count, std::uint32_t> ||
                      std::is_same_v<Count, std::uint64_t>);
        const std::uint64_t n = std::is_same_v<Count, std::uint32_t>
                ? r.getU32()
                : r.getU64();
        const std::uint8_t *p = r.take(n, kEntryBytes);
        keys.clear();
        vals.clear();
        order.clear();
        keys.reserve(static_cast<std::size_t>(n));
        if constexpr (!kIsSet)
            vals.reserve(static_cast<std::size_t>(n));
        resetIndex(static_cast<std::size_t>(n) * 10 / 7 + 1);
        bool ascending = true;
        for (std::uint64_t i = 0; i < n; ++i) {
            const Addr key = ckpt::loadLe<std::uint64_t>(p);
            ascending = ascending && (i == 0 || key > keys.back());
            if constexpr (kIsSet)
                assign(key, NoValue{});
            else
                assign(key, ckpt::loadLe<std::uint64_t>(p));
        }
        if (ascending) {
            order.resize(keys.size());
            for (std::size_t i = 0; i < keys.size(); ++i)
                order[i] = {keys[i], static_cast<std::uint32_t>(i)};
        }
    }

  private:
    static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};
    static constexpr std::size_t kEntryBytes = kIsSet ? 8 : 16;

    /** One index slot: the key and its dense entry, or kEmpty. */
    struct Slot
    {
        Addr key = 0;
        std::uint32_t idx = kEmpty;
    };

    /** Fibonacci multiplicative hash: the top log2(slots) bits of the
     * product are the home slot. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >>
                                        shift);
    }

    /** The slot holding @p key, or the empty slot where it would go. */
    Slot &
    probe(Addr key)
    {
        const std::size_t mask = slots.size() - 1;
        std::size_t i = home(key);
        while (slots[i].idx != kEmpty && slots[i].key != key)
            i = (i + 1) & mask;
        return slots[i];
    }

    const Slot &
    probe(Addr key) const
    {
        return const_cast<FlatAddrMap *>(this)->probe(key);
    }

    /** Rebuild the index with at least @p min_slots slots (a power of
     * two, at least 16) over the current dense entries. */
    void
    resetIndex(std::size_t min_slots)
    {
        std::size_t cap = 16;
        unsigned bits = 4;
        while (cap < min_slots) {
            cap <<= 1;
            ++bits;
        }
        slots.assign(cap, Slot{});
        shift = 64 - bits;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            Slot &s = probe(keys[i]);
            s.key = keys[i];
            s.idx = static_cast<std::uint32_t>(i);
        }
    }

    /** Extend the cached ascending order over the entries added since
     * it was last brought up to date: radix-sort only those, then merge
     * them in from the back (keys are unique, so no ties). */
    void
    syncOrder() const
    {
        const std::size_t done = order.size();
        if (done == keys.size())
            return;
        fresh.clear();
        for (std::size_t i = done; i < keys.size(); ++i)
            fresh.emplace_back(keys[i], static_cast<std::uint32_t>(i));
        ckpt::sortByKey(fresh, [](const auto &e) { return e.first; });
        order.resize(keys.size());
        std::size_t a = done;
        std::size_t b = fresh.size();
        std::size_t out = order.size();
        while (b > 0) {
            if (a > 0 && order[a - 1].first > fresh[b - 1].first)
                order[--out] = order[--a];
            else
                order[--out] = fresh[--b];
        }
    }

    std::vector<Slot> slots;
    unsigned shift = 60;
    std::vector<Addr> keys; ///< dense, insertion order
    std::vector<V> vals;    ///< parallel to keys (unused for a set)
    /** (key, entry) for entries [0, order.size()), ascending by key. */
    mutable std::vector<std::pair<Addr, std::uint32_t>> order;
    /** syncOrder's sort buffer, kept for its capacity. */
    mutable std::vector<std::pair<Addr, std::uint32_t>> fresh;
};

/** Key-ordered address set. */
using FlatAddrSet = FlatAddrMap<NoValue>;

} // namespace zbp

#endif // ZBP_UTIL_FLAT_ADDR_MAP_HH
