#include "zbp/cache/icache.hh"

namespace zbp::cache
{

ICache::ICache(const ICacheParams &p) : prm(p)
{
    ZBP_ASSERT(isPowerOf2(prm.lineBytes), "line size must be pow2");
    ZBP_ASSERT(prm.ways >= 1, "need at least one way");
    ZBP_ASSERT(prm.sizeBytes % (prm.lineBytes * prm.ways) == 0,
               "size not divisible by line*ways");
    numSets = prm.sizeBytes / (prm.lineBytes * prm.ways);
    ZBP_ASSERT(isPowerOf2(numSets), "set count must be pow2");
    lineShift = floorLog2(prm.lineBytes);
    setShift = floorLog2(numSets);
    lines.resize(static_cast<std::size_t>(numSets) * prm.ways);
    lru.reserve(numSets);
    for (std::uint32_t s = 0; s < numSets; ++s)
        lru.emplace_back(prm.ways);
}

std::uint64_t
ICache::setIndex(Addr addr) const
{
    return (addr >> lineShift) & (numSets - 1);
}

Addr
ICache::tagOf(Addr addr) const
{
    return addr >> (lineShift + setShift);
}

bool
ICache::probe(Addr addr) const
{
    const auto set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *row = &lines[set * prm.ways];
    for (std::uint32_t w = 0; w < prm.ways; ++w)
        if (row[w].valid && row[w].tag == tag)
            return true;
    return false;
}

bool
ICache::access(Addr addr, Cycle now)
{
    const auto set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *row = &lines[set * prm.ways];
    for (std::uint32_t w = 0; w < prm.ways; ++w) {
        if (row[w].valid && row[w].tag == tag) {
            lru[set].touch(w);
            ++nHits;
            return true;
        }
    }

    // Miss: install into the LRU way and record the 4 KB block.
    const unsigned victim = lru[set].lru();
    row[victim].valid = true;
    row[victim].tag = tag;
    lru[set].touch(victim);
    blockMiss.assign(addr >> 12, now);
    ++nMisses;
    return false;
}

bool
ICache::blockMissedRecently(Addr addr, Cycle now) const
{
    const Cycle *at = blockMiss.find(addr >> 12);
    if (at == nullptr)
        return false;
    return now >= *at && now - *at <= prm.missRecordTtl;
}

void
ICache::reset()
{
    for (auto &l : lines)
        l.valid = false;
    blockMiss.clear();
}

void
ICache::saveState(ckpt::Writer &w) const
{
    w.beginSection(ckpt::tag::kICache);
    w.putU32(numSets);
    w.putU32(prm.ways);
    w.putU32(prm.lineBytes);
    std::uint8_t *p = w.extend(lines.size() * kLineBytes +
                               lru.size() * prm.ways);
    for (const Line &l : lines) {
        ckpt::storeLe<std::uint8_t>(p, l.valid);
        ckpt::storeLe<std::uint64_t>(p, l.tag);
    }
    for (const LruState &s : lru)
        for (unsigned i = 0; i < prm.ways; ++i)
            ckpt::storeLe<std::uint8_t>(p, s.orderAt(i));
    // In block order, so that saving a restored cache reproduces the
    // image byte for byte.
    blockMiss.save<std::uint64_t>(w);
    w.putU64(nHits.value());
    w.putU64(nMisses.value());
    w.endSection();
}

void
ICache::restoreState(ckpt::Reader &r)
{
    r.openSection(ckpt::tag::kICache);
    if (r.getU32() != numSets || r.getU32() != prm.ways ||
        r.getU32() != prm.lineBytes)
        throw ckpt::CkptError("I-cache geometry mismatch");
    // Decoded straight into the live cache; a CkptError part-way means
    // the caller discards the model (ckpt.hh).
    const std::uint8_t *p = r.take(lines.size(), kLineBytes);
    for (Line &l : lines) {
        l.valid = ckpt::loadLe<std::uint8_t>(p) != 0;
        l.tag = ckpt::loadLe<std::uint64_t>(p);
    }
    p = r.take(lru.size(), prm.ways);
    for (LruState &s : lru) {
        if (!s.setOrder(p, prm.ways))
            throw ckpt::CkptError("I-cache LRU state is not a permutation");
        p += prm.ways;
    }
    blockMiss.load<std::uint64_t>(r);
    const std::uint64_t hits = r.getU64();
    const std::uint64_t misses = r.getU64();
    r.closeSection();
    nHits.reset();
    nHits += hits;
    nMisses.reset();
    nMisses += misses;
}

} // namespace zbp::cache
