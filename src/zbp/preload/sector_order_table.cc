#include "zbp/preload/sector_order_table.hh"

namespace zbp::preload
{

SectorOrderTable::SectorOrderTable(const SotParams &p) : prm(p)
{
    ZBP_ASSERT(prm.ways >= 1 && prm.entries % prm.ways == 0,
               "SOT entries must divide by ways");
    numSets = prm.entries / prm.ways;
    ZBP_ASSERT(isPowerOf2(numSets), "SOT sets must be a power of two");
    table.resize(prm.entries);
    lru.reserve(numSets);
    for (std::uint32_t s = 0; s < numSets; ++s)
        lru.emplace_back(prm.ways);
}

std::uint32_t
SectorOrderTable::setOf(Addr block) const
{
    return static_cast<std::uint32_t>(block & (numSets - 1));
}

const SectorOrderTable::Entry *
SectorOrderTable::find(Addr block) const
{
    const auto set = setOf(block);
    const Entry *row = &table[static_cast<std::size_t>(set) * prm.ways];
    for (std::uint32_t w = 0; w < prm.ways; ++w)
        if (row[w].valid && row[w].block == block)
            return &row[w];
    return nullptr;
}

void
SectorOrderTable::writeBack()
{
    if (!tracking || working.empty())
        return;
    const auto set = setOf(curBlock);
    Entry *row = &table[static_cast<std::size_t>(set) * prm.ways];
    // Merge into an existing entry for the block, or replace the LRU.
    for (std::uint32_t w = 0; w < prm.ways; ++w) {
        if (row[w].valid && row[w].block == curBlock) {
            row[w].pattern.merge(working);
            lru[set].touch(w);
            ++nWriteback;
            return;
        }
    }
    const unsigned victim = lru[set].lru();
    row[victim].valid = true;
    row[victim].block = curBlock;
    row[victim].pattern = working;
    lru[set].touch(victim);
    ++nWriteback;
}

void
SectorOrderTable::instructionCompleted(Addr ia)
{
    instructionCompletedPacked(blockSectorOf(ia));
}

void
SectorOrderTable::instructionCompletedPacked(std::uint64_t block_sector)
{
    if (!prm.enabled)
        return;

    const Addr block = block_sector >> 5;
    const unsigned sector =
            static_cast<unsigned>(block_sector & (kSectorsPerBlock - 1));
    const unsigned q = sector / kSectorsPerQuartile;
    if (!tracking || block != curBlock) {
        // Entering a different 4 KB block: store the pattern gathered
        // for the previous block, then retrieve any stored pattern for
        // the new block so new paths extend what is already known.
        writeBack();
        curBlock = block;
        demandQuartile = q;
        tracking = true;
        if (const Entry *e = find(block))
            working = e->pattern;
        else
            working = BlockPattern{};
    }

    working.sectorBits |= (1u << sector);
    if (q != demandQuartile)
        working.quartileRefs[demandQuartile] |=
                static_cast<std::uint8_t>(1u << q);
}

SectorOrder
SectorOrderTable::sequentialOrder(unsigned demand_quartile)
{
    SectorOrder o;
    const unsigned start = demand_quartile * kSectorsPerQuartile;
    for (unsigned i = 0; i < kSectorsPerBlock; ++i)
        o.sectors[i] = static_cast<std::uint8_t>(
                (start + i) % kSectorsPerBlock);
    o.activeCount = 0;
    o.fromTableHit = false;
    return o;
}

SectorOrder
SectorOrderTable::buildOrder(const BlockPattern &p, unsigned demand_quartile)
{
    SectorOrder o;
    o.fromTableHit = true;
    unsigned n = 0;

    // Quartile visit order: demand, referenced-from-demand, the rest.
    std::array<std::uint8_t, kQuartiles> qorder{};
    unsigned qn = 0;
    qorder[qn++] = static_cast<std::uint8_t>(demand_quartile);
    const std::uint8_t refs = p.quartileRefs[demand_quartile];
    for (unsigned q = 0; q < kQuartiles; ++q)
        if (q != demand_quartile && (refs & (1u << q)))
            qorder[qn++] = static_cast<std::uint8_t>(q);
    for (unsigned q = 0; q < kQuartiles; ++q)
        if (q != demand_quartile && !(refs & (1u << q)))
            qorder[qn++] = static_cast<std::uint8_t>(q);
    ZBP_ASSERT(qn == kQuartiles, "quartile order incomplete");

    // Pass 1: active sectors in quartile priority order.
    for (unsigned qi = 0; qi < kQuartiles; ++qi) {
        const unsigned base = qorder[qi] * kSectorsPerQuartile;
        for (unsigned s = 0; s < kSectorsPerQuartile; ++s)
            if (p.sectorBits & (1u << (base + s)))
                o.sectors[n++] = static_cast<std::uint8_t>(base + s);
    }
    o.activeCount = n;

    // Pass 2: the same priority repeated for inactive sectors.
    for (unsigned qi = 0; qi < kQuartiles; ++qi) {
        const unsigned base = qorder[qi] * kSectorsPerQuartile;
        for (unsigned s = 0; s < kSectorsPerQuartile; ++s)
            if (!(p.sectorBits & (1u << (base + s))))
                o.sectors[n++] = static_cast<std::uint8_t>(base + s);
    }
    ZBP_ASSERT(n == kSectorsPerBlock, "sector order incomplete");
    return o;
}

SectorOrder
SectorOrderTable::order(Addr miss_addr) const
{
    if (faults != nullptr)
        faults->onAccess(fault::Site::kSot, miss_addr);
    const unsigned demand = quartileOf(miss_addr);
    if (!prm.enabled) {
        ++nMisses;
        return sequentialOrder(demand);
    }

    const Addr block = blockOf(miss_addr);
    BlockPattern pat;
    bool have = false;
    if (const Entry *e = find(block)) {
        pat = e->pattern;
        have = true;
    }
    if (tracking && curBlock == block && !working.empty()) {
        pat.merge(working);
        have = true;
    }
    if (!have) {
        ++nMisses;
        return sequentialOrder(demand);
    }
    ++nHits;
    return buildOrder(pat, demand);
}

const BlockPattern *
SectorOrderTable::probe(Addr block_addr) const
{
    const Entry *e = find(blockOf(block_addr));
    return e ? &e->pattern : nullptr;
}

void
SectorOrderTable::attachFaultInjector(fault::FaultInjector &inj)
{
    faults = &inj;
    inj.attach(fault::Site::kSot, [this](Rng &rng, std::uint64_t where) {
        corruptEntry(rng, static_cast<Addr>(where));
    });
}

void
SectorOrderTable::corruptEntry(Rng &rng, Addr where)
{
    const auto set = setOf(blockOf(where));
    Entry &e = table[static_cast<std::size_t>(set) * prm.ways +
                     rng.below(prm.ways)];
    if (!e.valid)
        return;
    switch (rng.below(3)) {
      case 0:
        e = Entry{}; // pattern lost: next miss searches sequentially
        break;
      case 1:
        // Sector bit flip: the steered order visits one wrong (or
        // misses one right) sector early — preload waste only.
        e.pattern.sectorBits ^= 1u << rng.below(kSectorsPerBlock);
        break;
      default:
        // Block tag bit flip: the pattern migrates to another block.
        e.block ^= Addr{1} << rng.below(40);
        break;
    }
}

void
SectorOrderTable::reset()
{
    for (auto &e : table)
        e.valid = false;
    tracking = false;
    working = BlockPattern{};
}

namespace
{

/** Snapshot bytes of one pattern: sector bits (u32), quartile refs. */
constexpr std::size_t kPatternBytes = 4 + kQuartiles;

/** Snapshot bytes of one table entry: valid (u8), block (u64), pattern. */
constexpr std::size_t kEntryBytes = 1 + 8 + kPatternBytes;

void
storePattern(std::uint8_t *&p, const BlockPattern &bp)
{
    ckpt::storeLe(p, bp.sectorBits);
    for (const std::uint8_t q : bp.quartileRefs)
        ckpt::storeLe(p, q);
}

BlockPattern
loadPattern(const std::uint8_t *&p)
{
    BlockPattern bp;
    bp.sectorBits = ckpt::loadLe<std::uint32_t>(p);
    for (std::uint8_t &q : bp.quartileRefs)
        q = ckpt::loadLe<std::uint8_t>(p);
    return bp;
}

} // namespace

void
SectorOrderTable::saveState(ckpt::Writer &w) const
{
    w.beginSection(ckpt::tag::kSot);
    w.putU32(numSets);
    w.putU32(prm.ways);
    std::uint8_t *p = w.extend(table.size() * kEntryBytes +
                               lru.size() * prm.ways);
    for (const Entry &e : table) {
        ckpt::storeLe<std::uint8_t>(p, e.valid);
        ckpt::storeLe<std::uint64_t>(p, e.block);
        storePattern(p, e.pattern);
    }
    for (const LruState &s : lru)
        for (unsigned i = 0; i < prm.ways; ++i)
            ckpt::storeLe<std::uint8_t>(p, s.orderAt(i));
    w.putBool(tracking);
    w.putU64(curBlock);
    w.putU32(demandQuartile);
    p = w.extend(kPatternBytes);
    storePattern(p, working);
    w.putU64(nWriteback.value());
    w.putU64(nHits.value());
    w.putU64(nMisses.value());
    w.endSection();
}

void
SectorOrderTable::restoreState(ckpt::Reader &r)
{
    r.openSection(ckpt::tag::kSot);
    if (r.getU32() != numSets || r.getU32() != prm.ways)
        throw ckpt::CkptError("SOT geometry mismatch");
    // Decoded straight into the live table; a CkptError part-way means
    // the caller discards the model (ckpt.hh).
    const std::uint8_t *p = r.take(table.size(), kEntryBytes);
    for (Entry &e : table) {
        e.valid = ckpt::loadLe<std::uint8_t>(p) != 0;
        e.block = ckpt::loadLe<std::uint64_t>(p);
        e.pattern = loadPattern(p);
    }
    p = r.take(lru.size(), prm.ways);
    for (LruState &s : lru) {
        if (!s.setOrder(p, prm.ways))
            throw ckpt::CkptError("SOT LRU state is not a permutation");
        p += prm.ways;
    }
    tracking = r.getBool();
    curBlock = r.getU64();
    demandQuartile = r.getU32();
    if (demandQuartile >= kQuartiles)
        throw ckpt::CkptError("SOT demand quartile out of range");
    p = r.take(kPatternBytes);
    working = loadPattern(p);
    const std::uint64_t wb = r.getU64();
    const std::uint64_t hits = r.getU64();
    const std::uint64_t misses = r.getU64();
    r.closeSection();
    nWriteback.reset();
    nWriteback += wb;
    nHits.reset();
    nHits += hits;
    nMisses.reset();
    nMisses += misses;
}

} // namespace zbp::preload
