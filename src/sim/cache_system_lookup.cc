/**
 * @file
 * CacheSystem lookup half: lazy-commit reconciliation, hit testing,
 * local/remote version search, allocation/eviction, and raw data
 * movement. Per-version protocol decisions are delegated to the pure
 * engine in core/protocol.hh; fabric timing to the Interconnect.
 */

#include <algorithm>
#include <string>

#include "sim/cache_system.hh"

namespace hmtx::sim
{

// --- lookup -----------------------------------------------------------

void
CacheSystem::applyReconcile(Line& l) const
{
    applyView(l, reconcileVersion(viewOf(l), lcVid_));
}

void
CacheSystem::reconcile(Line& l)
{
    const State olds = l.state;
    const bool oldDirty = l.dirty;
    applyReconcile(l);
    if (l.state != olds || l.dirty != oldDirty)
        syncLine(l);
}

bool
CacheSystem::hits(const Line& l, Addr la, Vid a)
{
    if (l.state == State::Invalid || l.base != la)
        return false;
    // Count the VID comparisons the hardware would perform (§4.5).
    if (isSpec(l.state)) {
        cmp_.compare(a, l.tag.mod);
        if (isSpecSuperseded(l.state))
            cmp_.compare(a, l.tag.high);
    }
    return versionServes(viewOf(l), a);
}

Line*
CacheSystem::findLocal(Cache& c, Addr la, Vid a, bool forStore)
{
    // Reconcile and probe in one pass over the set: lazy-commit
    // transitions are strictly per-line, so interleaving them with the
    // probes is equivalent to reconciling every version of la first
    // and probing in a second scan, at roughly half the cost.
    Line* hit = nullptr;
    for (auto& l : c.set(la).lines) {
        if (l.state != State::Invalid && l.base == la)
            reconcile(l);
        if (hit)
            continue;
        if (forStore && l.state == State::SpecShared)
            continue;
        if (hits(l, la, a))
            hit = &l;
    }
    return hit;
}

CacheSystem::RemoteHit
CacheSystem::findRemote(CoreId self, Addr la, Vid a)
{
    RemoteHit rh;
    forEachSnoopTarget(la, [&](std::size_t ci) {
        Cache& c = caches_[ci];
        const bool isSelf = (ci == self);
        for (auto& l : c.set(la).lines) {
            if (l.state == State::Invalid || l.base != la)
                continue;
            reconcile(l);
            if (l.state == State::Invalid)
                continue;
            // §5.4: speculative versions that miss on VID comparison
            // assert that the line was speculatively modified.
            if (isSpecResponder(l.state) && l.tag.mod > a)
                rh.assertModified = true;
            if (isSelf)
                continue; // the local L1 was already searched
            // S-S copies never respond to snoops (§4.1).
            if (l.state == State::SpecShared)
                continue;
            if (!rh.line && hits(l, la, a)) {
                rh.line = &l;
                rh.cache = &c;
            }
        }
    });
    if (cfg_.unboundedSpecSets && !overflow_.empty()) {
        // A miss (or assert) may be resolved by a spilled version:
        // the hardware walk engine searches the overflow table
        // (§8 / [27]).
        if (auto* vs = overflow_.versionsOf(la)) {
            for (auto& l : vs->lines)
                reconcile(l);
            // Erase reconciled-away versions, keeping metadata and
            // payload planes in lockstep.
            for (std::size_t i = vs->lines.size(); i-- > 0;) {
                if (vs->lines[i].state == State::Invalid) {
                    vs->lines.erase(vs->lines.begin() +
                                    static_cast<std::ptrdiff_t>(i));
                    vs->data.erase(vs->data.begin() +
                                   static_cast<std::ptrdiff_t>(i));
                }
            }
            for (std::size_t i = 0; i < vs->lines.size(); ++i) {
                Line& l = vs->lines[i];
                if (isSpecResponder(l.state) && l.tag.mod > a)
                    rh.assertModified = true;
                if (!rh.line && hits(l, la, a)) {
                    // Refill the version into the requester's L1 and
                    // continue as a normal remote hit. Copy meta and
                    // payload out first: allocate() may evict-spill
                    // and rehash the overflow table under vs.
                    Line copy = l;
                    LineData d = vs->data[i];
                    overflow_.remove(la, i);
                    rh.extraLatency = OverflowTable::kWalkCycles +
                        cfg_.memLatency;
                    ++stats_.specRefills;
                    Line* slot = allocate(caches_[self], la);
                    if (!slot)
                        return rh; // capacity abort during refill
                    *slot = copy;
                    caches_[self].dataOf(*slot) = d;
                    syncLine(*slot);
                    rh.line = slot;
                    rh.cache = &caches_[self];
                    break;
                }
            }
        }
    }
    return rh;
}

// --- allocation & eviction --------------------------------------------

bool
CacheSystem::foldCopyMark(Addr la, const Line& victim)
{
    // Carriers in preference order: a spec-latest responder (S-E/S-M),
    // a peer latest-version S-S copy, then a non-speculative copy. The
    // last tier matters for lazy/eager symmetry: an eager commit walk
    // reconciles a retired owner to plain S/E while a lazy cell keeps
    // it S-E(0,h), and the evicting copy's mark must survive in both.
    Line* owner = nullptr;
    Line* peer = nullptr;
    Line* plain = nullptr;
    forEachSnoopTarget(la, [&](std::size_t ci) {
        if (owner)
            return;
        for (auto& l : caches_[ci].set(la).lines) {
            if (&l == &victim || l.state == State::Invalid ||
                l.base != la)
                continue;
            if (isSpecLatest(l.state)) {
                owner = &l;
                return;
            }
            if (l.state == State::SpecShared && l.latestCopy)
                peer = &l;
            else if (!isSpec(l.state)) {
                // Prefer the responder copy (E/M/O) over silent S.
                if (!plain || plain->state == State::Shared)
                    plain = &l;
            }
        }
    });
    if (!owner && !peer && cfg_.unboundedSpecSets) {
        if (auto* vs = overflow_.versionsOf(la)) {
            for (auto& l : vs->lines) {
                if (isSpecLatest(l.state)) {
                    owner = &l;
                    break;
                }
            }
        }
    }
    if (Line* dst = owner ? owner : peer) {
        if (victim.tag.high > dst->tag.high) {
            dst->tag.high = victim.tag.high;
            dst->highFromWrongPath = victim.highFromWrongPath;
        }
        return true;
    }
    if (!plain)
        return false;
    // No speculative version of the line exists, so the committed data
    // *is* the latest version and any copy of it may adopt the mark,
    // re-entering the mod==0 speculative encoding a spec load of
    // non-speculative data produces. dirty / mayHaveSharers carry the
    // MOESI facts through the later retire (shareIfSharers lands an
    // ex-O carrier back in O/S, an ex-M one in M).
    // The carrier becomes the version's responder (S-E), never an S-S
    // copy: a copy-class carrier would itself need a responder to fold
    // into when evicted, and its victim class (2 vs 4) must match what
    // a cell that never reconciled the original owner keeps. Ex-S and
    // ex-O carriers note their peers so retire lands them back in a
    // shareable state.
    plain->tag = {kNonSpecVid, victim.tag.high};
    plain->highFromWrongPath = victim.highFromWrongPath;
    if (plain->state == State::Shared || plain->state == State::Owned)
        plain->mayHaveSharers = true;
    plain->state = State::SpecExclusive;
    syncLine(*plain);
    // Same rule as a speculative upgrade of committed data: the now-
    // speculative version may not coexist with plain copies. No marked
    // S-S peers exist here (tier 2 would have carried the mark), so
    // the dropped-mark result is vacuous.
    invalidateNonSpecPeers(la, plain);
    return true;
}

bool
CacheSystem::evict(Cache& c, Line& victim)
{
    const bool isL2 = (&c == &caches_.back());
    const Addr la = victim.base;

    auto drop = [&victim, this] {
        victim.state = State::Invalid;
        syncLine(victim);
    };

    switch (victim.state) {
      case State::SpecShared:
        // Droppable copies: the owner version still responds. A
        // latest-version copy's highVID is a live local read mark,
        // though (§4.3) — fold it into the responder before the copy
        // dies, or abort conservatively when no speculative responder
        // remains to carry it (§5.4).
        if (victim.latestCopy && victim.tag.high > lcVid_ &&
            !foldCopyMark(la, victim)) {
            ++stats_.capacityAborts;
            triggerAbort(&victim);
            return false;
        }
        drop();
        return true;
      case State::Shared:
      case State::Exclusive:
        if (isL2) {
            drop(); // clean: memory already has the data
            return true;
        }
        break; // L1 victims spill into the shared L2
      case State::Modified:
      case State::Owned:
        if (isL2) {
            mem_.writeLine(la, c.dataOf(victim));
            ++stats_.writebacks;
            drop();
            return true;
        }
        break; // move to L2
      case State::SpecOwned:
        if (victim.tag.mod == kNonSpecVid) {
            // §5.4: the pristine pre-speculation data is committed
            // state and may overflow to memory (from any level — it
            // must not displace S-M/S-E lines, whose loss aborts); an
            // S-M line's snoop assertion recovers it later.
            if (victim.dirty) {
                mem_.writeLine(la, c.dataOf(victim));
                ++stats_.writebacks;
            }
            ++stats_.soOverflowWritebacks;
            drop();
            return true;
        }
        if (isL2) {
            if (cfg_.unboundedSpecSets) {
                overflow_.spill(victim, c.dataOf(victim));
                ++stats_.specSpills;
                drop();
                return true;
            }
            ++stats_.capacityAborts;
            triggerAbort(&victim);
            return false;
        }
        break; // move to L2
      case State::SpecExclusive:
      case State::SpecModified:
        if (isL2) {
            if (cfg_.unboundedSpecSets) {
                // §8 / [27]: spill the version into the
                // memory-resident overflow table instead of aborting.
                trace_.record({.when = eq_.curTick(), .addr = la,
                               .tag = victim.tag, .kind = TraceKind::Spill,
                               .state = victim.state});
                overflow_.spill(victim, c.dataOf(victim));
                ++stats_.specSpills;
                drop();
                return true;
            }
            // Speculative state fell out of the last-level cache: the
            // transaction cannot be tracked any more (§5.4).
            ++stats_.capacityAborts;
            triggerAbort(&victim);
            return false;
        }
        break; // move to L2
      case State::Invalid:
        return true; // excluded by the precondition
    }

    // Move the line from an L1 into the shared L2. A committed dirty
    // payload (plain M/O, or the mod==0 speculative encodings — the
    // victim is reconciled, so committed data always tags mod==0) exists
    // only in the local copy once drop() runs, and the L2 allocation
    // can capacity-abort mid-move; flush it so memory stays the
    // backstop. Uncommitted payloads (mod > LC) are abort-revertible
    // by construction and need no flush.
    Line copy = victim;
    LineData d = c.dataOf(victim);
    if (copy.dirty && copy.tag.mod == kNonSpecVid) {
        mem_.writeLine(la, d);
        ++stats_.writebacks;
    }
    drop();
    Line* slot = allocate(caches_.back(), la);
    if (!slot)
        return false;
    *slot = copy;
    caches_.back().dataOf(*slot) = d;
    syncLine(*slot);
    return true;
}

Line*
CacheSystem::allocate(Cache& c, Addr la, bool optional)
{
    Line* slot = c.freeSlot(la);
    if (!slot) {
        // Full set: one pass reconciles every way (which may free
        // one) and takes the first way left Invalid, else the cheapest
        // victim by (class, LRU, address); exact ties keep the earlier
        // way. The address tie-break keeps replacement a pure function
        // of the set's contents: same-tick allocations leave lastUse
        // ties, and physical way order varies with reconciliation
        // timing (lazy vs. eager). An optional fill evicts only class
        // <= 2 victims: displacing responder-class speculative state
        // for a refetchable copy would risk capacity aborts.
        Line* victim = nullptr;
        int victimCls = 0;
        for (auto& l : c.set(la).lines) {
            reconcile(l);
            if (slot)
                continue;
            if (l.state == State::Invalid) {
                slot = &l;
                continue;
            }
            const int vc = victimClass(viewOf(l));
            if (optional && vc > 2)
                continue;
            if (!victim || vc < victimCls ||
                (vc == victimCls &&
                 (l.lastUse < victim->lastUse ||
                  (l.lastUse == victim->lastUse &&
                   l.base < victim->base)))) {
                victim = &l;
                victimCls = vc;
            }
        }
        if (!slot) {
            if (!victim)
                return nullptr;
            std::uint64_t gen = abortGen_;
            if (!evict(c, *victim) || abortGen_ != gen)
                return nullptr;
            slot = victim;
        }
    }
    *slot = Line{};
    slot->base = la;
    slot->lastUse = ++useClock_;
    c.dataOf(*slot).fill(0);
    return slot;
}

// --- data movement -------------------------------------------------------

std::uint64_t
CacheSystem::readData(const Line& l, Addr a, unsigned size) const
{
    return readLe(dataOf(l), lineOffset(a), size);
}

void
CacheSystem::writeData(Line& l, Addr a, std::uint64_t v, unsigned size)
{
    writeLe(dataOf(l), lineOffset(a), v, size);
}

void
CacheSystem::busAcquire(AccessResult& r, Addr la)
{
    r.latency += net_->acquire(eq_.curTick(), la);
}

} // namespace hmtx::sim
