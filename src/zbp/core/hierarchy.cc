#include "zbp/core/hierarchy.hh"

#include <algorithm>
#include <utility>

namespace zbp::core
{

BranchPredictorHierarchy::BranchPredictorHierarchy(
        const MachineParams &p, btb::SetAssocBtb *shared_btb2)
    : prm(p),
      btb1Ptr(std::make_unique<btb::SetAssocBtb>("btb1", p.btb1)),
      btbpPtr(std::make_unique<btb::SetAssocBtb>("btbp", p.btbp)),
      btb2Ptr(shared_btb2 != nullptr
                      ? nullptr
                      : std::make_unique<btb::SetAssocBtb>("btb2", p.btb2)),
      btb2Use(shared_btb2 != nullptr ? shared_btb2 : btb2Ptr.get()),
      phtTable(p.phtEntries),
      ctbTable(p.ctbEntries),
      sbht(p.surpriseBhtEntries),
      fitTable(p.search.fitEntries)
{
    // Both histories fold against the same table geometry on every
    // prediction/resolve; maintain those folds incrementally across
    // pushes instead of re-walking the path ring per hash extraction.
    specHist.configureHashCache(phtTable.indexWidth(),
                                ctbTable.indexWidth(),
                                phtTable.tagWidth());
    archHist.configureHashCache(phtTable.indexWidth(),
                                ctbTable.indexWidth(),
                                phtTable.tagWidth());
}

CandidateList
BranchPredictorHierarchy::searchFirstLevel(Addr search_addr) const
{
    CandidateList out;

    // Most searches probe sequential code with no stored branches: when
    // both row filters miss (and no fault injector needs its access
    // hook), the search is over after two signature loads.
    if (btb1Ptr->faultFree() && btbpPtr->faultFree() &&
        !btb1Ptr->sigHit(search_addr) && !btbpPtr->sigHit(search_addr))
        return out;

    // Both structures probe the same trace address; hint both key
    // planes up front so the BTBP's loads overlap the BTB1's compare.
    btb1Ptr->prefetchProbe(search_addr);
    btbpPtr->prefetchProbe(search_addr);

    // Insertion keeps the list ordered by perceived IA throughout, so
    // the duplicate check and the final sort collapse into the
    // insertion-position scan.
    auto consume = [&](const btb::SetAssocBtb &t, PredictionSource src) {
        const Addr row_base = alignDown(search_addr, t.config().rowBytes);
        for (const auto &h : t.searchFrom(search_addr)) {
            const Addr perceived =
                    row_base + (h.entry.ia & t.config().offsetMask);
            // Collapse duplicates across levels (same perceived IA):
            // BTB1 is consumed first and wins.
            std::size_t pos = 0;
            while (pos < out.size() && out[pos].perceivedIa < perceived)
                ++pos;
            if (pos < out.size() && out[pos].perceivedIa == perceived)
                continue;
            Candidate c;
            c.entry = h.entry;
            c.source = src;
            c.perceivedIa = perceived;
            // MRU-way information affects re-index timing (Table 1).
            c.inMruWay = src == PredictionSource::kBtb1 &&
                         t.isMru(h.row, h.way);
            out.insertAt(pos, c);
        }
    };

    consume(*btb1Ptr, PredictionSource::kBtb1);
    consume(*btbpPtr, PredictionSource::kBtbp);

    return out;
}

Prediction
BranchPredictorHierarchy::makePrediction(const Candidate &c,
                                         std::uint64_t seq)
{
    Prediction p;
    p.seq = seq;
    p.ia = c.perceivedIa;
    p.source = c.source;
    // Fold the pre-branch speculative history once; the same hashes
    // serve the lookups below and the resolve-time training.  Hint
    // both rows now so their loads overlap the bimodal decision.
    p.hist = hashesOf(specHist);
    prefetchDirTables(p.hist);

    // Direction: bimodal state, PHT override when the entry's gate bit
    // allows it and the PHT has a tag hit.
    bool taken = c.entry.dir.taken();
    if (c.entry.phtAllowed) {
        if (auto d = phtTable.lookupHashed(p.ia, p.hist.phtIndex,
                                           p.hist.phtTagHash)) {
            if (*d != taken)
                ++nPhtOverrides;
            taken = *d;
            p.usedPht = true;
        }
    }
    p.taken = taken;

    // Target: entry target, CTB override when gated on.
    if (taken) {
        p.target = c.entry.target;
        if (c.entry.ctbAllowed) {
            if (auto t = ctbTable.lookupHashed(p.ia, p.hist.ctbIndex)) {
                if (*t != p.target)
                    ++nCtbOverrides;
                p.target = *t;
                p.usedCtb = true;
            }
        }
    }

    // Speculative history update (paper §3.2).  Direction counters are
    // trained at resolve time only: wrong-path predictions never
    // resolve, and letting them update the 2-bit counters was measured
    // to pollute hot entries badly.
    specHist.push(p.ia, taken);
    const btb::BtbEntry updated = c.entry;

    if (c.source == PredictionSource::kBtbp) {
        // Content moves BTBP -> BTB1 upon making a prediction from the
        // BTBP; the BTB1 victim goes to both the BTBP (victim buffer)
        // and the BTB2 (LRU way, made MRU) (paper §3.1, §3.3).
        btbpPtr->invalidate(updated.ia);
        auto victim = btb1Ptr->install(updated);
        ++nPromotions;
        if (victim) {
            btbpPtr->install(*victim);
            if (prm.btb2Enabled) {
                btb2Use->install(*victim);
                ++nVictimsToBtb2;
            }
        }
    } else {
        // In-place speculative counter update + recency.
        if (auto h = btb1Ptr->lookup(updated.ia)) {
            btb1Ptr->setDir(h->row, h->way, updated.dir);
            btb1Ptr->touch(updated.ia);
        }
    }

    ++nPredictions;
    return p;
}

void
BranchPredictorHierarchy::trainAfterResolve(btb::BtbEntry &entry,
                                            const dir::HistoryHashes &hashes,
                                            trace::InstKind kind,
                                            bool taken, Addr target)
{
    const bool bimodal_was_wrong = entry.dir.taken() != taken;

    // Direction training toward the resolved outcome.
    entry.dir.update(taken);

    // PHT: train when gated on; allocate + gate on when the bimodal
    // state mispredicted (multi-directional behaviour detected).
    if (kind == trace::InstKind::kCondBranch) {
        if (entry.phtAllowed) {
            phtTable.updateHashed(entry.ia, hashes.phtIndex,
                                  hashes.phtTagHash, taken,
                                  bimodal_was_wrong);
        } else if (bimodal_was_wrong) {
            phtTable.updateHashed(entry.ia, hashes.phtIndex,
                                  hashes.phtTagHash, taken, true);
            entry.phtAllowed = true;
        }
    }

    // CTB: a taken branch whose target moved is a changing-target
    // branch; gate the CTB on and keep it trained.
    if (taken && target != kNoAddr) {
        if (entry.target != target) {
            ctbTable.updateHashed(entry.ia, hashes.ctbIndex, target);
            entry.ctbAllowed = true;
            entry.target = target;
        } else if (entry.ctbAllowed) {
            ctbTable.updateHashed(entry.ia, hashes.ctbIndex, target);
        }
    }
}

void
BranchPredictorHierarchy::resolvePredicted(const Prediction &pred,
                                           trace::InstKind kind,
                                           bool actual_taken,
                                           Addr actual_target, Cycle now)
{
    (void)now;
    sbht.update(pred.ia, kind, actual_taken);
    archHist.push(pred.ia, actual_taken);

    // The entry may have moved between levels since prediction time;
    // find it wherever it lives now.
    btb::SetAssocBtb *home = nullptr;
    std::optional<btb::BtbHit> h = btb1Ptr->lookup(pred.ia);
    if (h) {
        home = btb1Ptr.get();
    } else {
        h = btbpPtr->lookup(pred.ia);
        if (h)
            home = btbpPtr.get();
    }
    if (home == nullptr)
        return; // evicted in flight; nothing to train

    btb::BtbEntry entry = home->entryAt(h->row, h->way);
    trainAfterResolve(entry, pred.hist, kind, actual_taken, actual_target);
    home->update(h->row, h->way, entry);
}

void
BranchPredictorHierarchy::resolveSurprise(Addr ia, trace::InstKind kind,
                                          bool taken, Addr target,
                                          Cycle now)
{
    sbht.update(ia, kind, taken);
    archHist.push(ia, taken);

    // The branch may actually be present but was missed by the search
    // flow (latency); train it in place.  Note: archHist already
    // includes this branch (pushed above), matching the pre-hashes
    // behaviour of passing the live architectural history.
    if (auto h = btb1Ptr->lookup(ia)) {
        btb::BtbEntry entry = btb1Ptr->entryAt(h->row, h->way);
        trainAfterResolve(entry, hashesOf(archHist), kind, taken,
                          target);
        btb1Ptr->update(h->row, h->way, entry);
        return;
    }
    if (auto h = btbpPtr->lookup(ia)) {
        btb::BtbEntry entry = btbpPtr->entryAt(h->row, h->way);
        trainAfterResolve(entry, hashesOf(archHist), kind, taken,
                          target);
        btbpPtr->update(h->row, h->way, entry);
        return;
    }

    // Ever-taken branches are installed: surprise installs write the
    // BTBP and the BTB2 (paper §3.1).
    if (taken && target != kNoAddr) {
        const auto e = btb::BtbEntry::freshTaken(ia, target);
        btbpPtr->install(e);
        if (prm.btb2Enabled)
            btb2Use->install(e);
        installCycle.assign(ia, now);
        ++nSurpriseInstalls;
    }
}

void
BranchPredictorHierarchy::preload(Addr ia, Addr target)
{
    btbpPtr->install(btb::BtbEntry::freshTaken(ia, target));
    ++nPreloads;
}

std::optional<Cycle>
BranchPredictorHierarchy::lastInstall(Addr ia) const
{
    const Cycle *c = installCycle.find(ia);
    if (c == nullptr)
        return std::nullopt;
    return *c;
}

void
BranchPredictorHierarchy::reset()
{
    btb1Ptr->reset();
    btbpPtr->reset();
    if (btb2Ptr != nullptr)
        btb2Ptr->reset(); // the shared BTB2 is reset once by its owner
    phtTable.reset();
    ctbTable.reset();
    sbht.reset();
    fitTable.reset();
    specHist.clear();
    archHist.clear();
    installCycle.clear();
}

void
BranchPredictorHierarchy::saveState(ckpt::Writer &w) const
{
    w.beginSection(ckpt::tag::kHierarchy);
    w.putBool(ownsBtb2());
    // In address order, not slot order, so that saving a restored
    // hierarchy reproduces the image byte for byte.
    std::vector<std::pair<Addr, Cycle>> ic;
    ic.reserve(installCycle.size());
    installCycle.forEach(
            [&ic](Addr ia, Cycle c) { ic.emplace_back(ia, c); });
    ckpt::sortByKey(ic, [](const auto &e) { return e.first; });
    w.putU32(static_cast<std::uint32_t>(ic.size()));
    std::uint8_t *p = w.extend(ic.size() * 16);
    for (const auto &[ia, c] : ic) {
        ckpt::storeLe<std::uint64_t>(p, ia);
        ckpt::storeLe<std::uint64_t>(p, c);
    }
    w.putU64(nPredictions.value());
    w.putU64(nPromotions.value());
    w.putU64(nVictimsToBtb2.value());
    w.putU64(nSurpriseInstalls.value());
    w.putU64(nPreloads.value());
    w.putU64(nPhtOverrides.value());
    w.putU64(nCtbOverrides.value());
    w.endSection();
    btb1Ptr->saveState(w);
    btbpPtr->saveState(w);
    if (ownsBtb2())
        btb2Ptr->saveState(w);
    phtTable.saveState(w);
    ctbTable.saveState(w);
    sbht.saveState(w);
    fitTable.saveState(w);
    specHist.saveState(w);
    archHist.saveState(w);
}

void
BranchPredictorHierarchy::restoreState(ckpt::Reader &r)
{
    r.openSection(ckpt::tag::kHierarchy);
    if (r.getBool() != ownsBtb2())
        throw ckpt::CkptError("hierarchy BTB2 ownership mismatch");
    const std::uint32_t nic = r.getU32();
    const std::uint8_t *p = r.take(nic, 16);
    installCycle.clear();
    for (std::uint32_t i = 0; i < nic; ++i) {
        const Addr ia = ckpt::loadLe<std::uint64_t>(p);
        installCycle.assign(ia, ckpt::loadLe<std::uint64_t>(p));
    }
    const std::uint64_t preds = r.getU64();
    const std::uint64_t promos = r.getU64();
    const std::uint64_t victims = r.getU64();
    const std::uint64_t surprises = r.getU64();
    const std::uint64_t preloads = r.getU64();
    const std::uint64_t phtOv = r.getU64();
    const std::uint64_t ctbOv = r.getU64();
    r.closeSection();
    btb1Ptr->restoreState(r);
    btbpPtr->restoreState(r);
    if (ownsBtb2())
        btb2Ptr->restoreState(r);
    phtTable.restoreState(r);
    ctbTable.restoreState(r);
    sbht.restoreState(r);
    fitTable.restoreState(r);
    specHist.restoreState(r);
    archHist.restoreState(r);
    nPredictions.reset();
    nPredictions += preds;
    nPromotions.reset();
    nPromotions += promos;
    nVictimsToBtb2.reset();
    nVictimsToBtb2 += victims;
    nSurpriseInstalls.reset();
    nSurpriseInstalls += surprises;
    nPreloads.reset();
    nPreloads += preloads;
    nPhtOverrides.reset();
    nPhtOverrides += phtOv;
    nCtbOverrides.reset();
    nCtbOverrides += ctbOv;
}

void
BranchPredictorHierarchy::registerStats(stats::Group &g) const
{
    g.add("predictions", nPredictions, "dynamic predictions formed");
    g.add("promotions", nPromotions, "BTBP->BTB1 content moves");
    g.add("victimsToBtb2", nVictimsToBtb2, "BTB1 victims written to BTB2");
    g.add("surpriseInstalls", nSurpriseInstalls,
          "taken surprise branches installed");
    g.add("preloads", nPreloads, "software preload installs");
    g.add("phtOverrides", nPhtOverrides, "PHT direction overrides");
    g.add("ctbOverrides", nCtbOverrides, "CTB target overrides");
    btb1Ptr->registerStats(g);
}

} // namespace zbp::core
