/**
 * @file
 * CacheSystem access half: loads, stores, SLA confirmation, and the
 * peer-fixup protocol actions they trigger. Marking and classification
 * decisions come from the pure engine in core/protocol.hh; all fabric
 * timing goes through the Interconnect.
 */

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/cache_system.hh"

namespace hmtx::sim
{

// --- protocol actions ---------------------------------------------------

void
CacheSystem::applyReadMark(Line& l, Vid vid, AccessResult& r)
{
    const ReadMarkAction act = classifyReadMark(l.state, l.tag, vid);
    if (act == ReadMarkAction::None)
        return;
    if (act == ReadMarkAction::RaiseHigh) {
        r.needSla = true;
        l.tag.high = vid;
        l.highFromWrongPath = false;
        return;
    }
    Vid high = vid;
    bool raised = true;
    if (act == ReadMarkAction::UpgradeWithBus) {
        // Gain writable access (§4.2) before going speculative. The
        // peer copies being destroyed may be latest-version S-S lines
        // carrying live distributed read marks (§4.3); fold those into
        // the new owner or a later conflicting store would miss its
        // dependence abort.
        busAcquire(r, l.base);
        l.dirty = l.dirty || anyNonSpecDirty(l.base, &l);
        DroppedMark dm = invalidateNonSpecPeers(l.base, &l);
        if (dm.high >= high) {
            // An inherited peer mark already covers this VID: the
            // read planted nothing new, exactly as a hit under a
            // live owner mark would.
            high = dm.high;
            l.highFromWrongPath = dm.wrongPath;
            raised = false;
        }
    }
    l.state = specUpgradeState(l.dirty);
    l.tag = {kNonSpecVid, high};
    syncLine(l);
    r.needSla = raised;
}

void
CacheSystem::fixPeersForNewVersion(Addr la, const Line* owner, Vid y)
{
    forEachSnoopTarget(la, [&](std::size_t ci) {
        for (auto& l : caches_[ci].set(la).lines) {
            if (&l == owner || l.state == State::Invalid || l.base != la)
                continue;
            reconcile(l);
            if (l.state == State::Invalid)
                continue;
            if (!isSpec(l.state)) {
                // Non-speculative sharers of the pristine version stay
                // usable for VIDs below the new version. They become
                // droppable copies; the S-O owner carries dirtiness.
                l.state = State::SpecShared;
                l.tag = {kNonSpecVid, y};
                l.dirty = false;
                syncLine(l);
            } else if (l.state == State::SpecShared && l.latestCopy) {
                // The version this copy mirrors is now superseded at
                // VID y: the copy keeps serving VIDs below y only.
                l.latestCopy = false;
                if (y <= l.tag.mod)
                    l.state = State::Invalid;
                else
                    l.tag.high = y;
                syncLine(l);
            } else if (l.state == State::SpecShared &&
                       !l.latestCopy && l.tag.high > y) {
                if (y <= l.tag.mod)
                    l.state = State::Invalid;
                else
                    l.tag.high = y;
                syncLine(l);
            }
        }
    });
}

void
CacheSystem::invalidatePeerSpecShared(Addr la, const Line* keep, Vid mod)
{
    forEachSnoopTarget(la, [&](std::size_t ci) {
        for (auto& l : caches_[ci].set(la).lines) {
            if (&l == keep || l.state != State::SpecShared ||
                l.base != la) {
                continue;
            }
            if (l.tag.mod == mod || l.tag.high > mod) {
                l.state = State::Invalid;
                syncLine(l);
            }
        }
    });
}

bool
CacheSystem::anyNonSpecDirty(Addr la, const Line* except)
{
    bool dirty = false;
    forEachSnoopTarget(la, [&](std::size_t ci) {
        if (dirty)
            return;
        for (auto& l : caches_[ci].set(la).lines) {
            if (&l == except || l.state == State::Invalid ||
                l.base != la) {
                continue;
            }
            if (!isSpec(l.state) && l.dirty) {
                dirty = true;
                return;
            }
        }
    });
    return dirty;
}

CacheSystem::DroppedMark
CacheSystem::invalidateNonSpecPeers(Addr la, const Line* keep)
{
    DroppedMark dm;
    forEachSnoopTarget(la, [&](std::size_t ci) {
        for (auto& l : caches_[ci].set(la).lines) {
            if (&l == keep || l.state == State::Invalid || l.base != la)
                continue;
            if (!isSpec(l.state)) {
                l.state = State::Invalid;
                syncLine(l);
            } else if (l.state == State::SpecShared) {
                // Copies are always refetchable from the owner (or
                // memory); a stale one must not keep serving reads
                // after this write. A latest-version copy's highVID is
                // a live local read mark, though — surface it to the
                // caller so the record survives the copy (§4.3).
                if (l.latestCopy && l.tag.high > lcVid_ &&
                    l.tag.high > dm.high) {
                    dm.high = l.tag.high;
                    dm.wrongPath = l.highFromWrongPath;
                }
                l.state = State::Invalid;
                l.latestCopy = false;
                syncLine(l);
            }
        }
    });
    return dm;
}

void
CacheSystem::triggerAbort(const Line* offender)
{
    if (offender && offender->highFromWrongPath)
        ++stats_.falseAbortsWrongPath;
    trace_.record({.when = eq_.curTick(),
                   .addr = offender ? offender->base : 0,
                   .tag = offender ? offender->tag : VersionTag{},
                   .kind = TraceKind::Abort,
                   .state = offender ? offender->state : State::Invalid});
    abortAll();
}

// --- bookkeeping ----------------------------------------------------------

const RwSets*
CacheSystem::rwFind(Vid vid) const
{
    const std::uint32_t* slot = rwSlot_.find(vid);
    return slot ? &rwSets_[*slot] : nullptr;
}

RwSets&
CacheSystem::rwFor(Vid vid)
{
    // Accesses cluster heavily by VID (each core works through one
    // transaction at a time), so cache the last slot instead of
    // probing per access. Slots only move on commit/abort, which
    // drop the cache.
    if (rwCachedSlot_ != kNoRwSlot && rwCachedVid_ == vid)
        return rwSets_[rwCachedSlot_];
    std::uint32_t slot;
    if (const std::uint32_t* found = rwSlot_.find(vid)) {
        slot = *found;
    } else {
        // New VID: take the first spare slot (or grow the pool).
        if (rwLive_ == rwSets_.size())
            rwSets_.emplace_back();
        slot = static_cast<std::uint32_t>(rwLive_++);
        rwSets_[slot].vid = vid;
        rwSlot_[vid] = slot;
    }
    rwCachedVid_ = vid;
    rwCachedSlot_ = slot;
    return rwSets_[slot];
}

void
CacheSystem::rwRelease(Vid vid)
{
    const std::uint32_t* found = rwSlot_.find(vid);
    if (!found)
        return;
    const std::size_t slot = *found;
    rwSlot_.erase(vid);
    RwSets& gone = rwSets_[slot];
    gone.clear();
    // Keep the live slots dense: the last live VID moves into the hole.
    const std::size_t last = --rwLive_;
    if (slot != last) {
        std::swap(gone, rwSets_[last]);
        rwSlot_[gone.vid] = static_cast<std::uint32_t>(slot);
    }
    rwCachedSlot_ = kNoRwSlot;
}

void
CacheSystem::rwReleaseAll()
{
    for (std::size_t i = 0; i < rwLive_; ++i)
        rwSets_[i].clear();
    rwLive_ = 0;
    rwSlot_.clear();
    rwCachedSlot_ = kNoRwSlot;
}

void
CacheSystem::recordRead(Vid vid, Addr la, Line* l)
{
    if (l && l->rwGen == rwGen_ && l->rwReadVid == vid)
        return; // this line's read is already in vid's set
    rwFor(vid).addRead(la);
    if (l) {
        if (l->rwGen != rwGen_) {
            // Entering the current generation invalidates whatever
            // the other mark said in the previous one.
            l->rwGen = rwGen_;
            l->rwWriteVid = kNonSpecVid;
        }
        l->rwReadVid = vid;
    }
}

void
CacheSystem::recordWrite(Vid vid, Addr la, Line* l)
{
    if (l && l->rwGen == rwGen_ && l->rwWriteVid == vid)
        return; // this line's write is already in vid's set
    rwFor(vid).addWrite(la);
    if (l) {
        if (l->rwGen != rwGen_) {
            l->rwGen = rwGen_;
            l->rwReadVid = kNonSpecVid;
        }
        l->rwWriteVid = vid;
    }
}

void
CacheSystem::noteShadowWrongPath(Addr la, Vid vid)
{
    Vid& v = shadow_[la];
    v = std::max(v, vid);
}

void
CacheSystem::checkShadowAvoided(Addr la, Vid storeVid)
{
    // Only wrong-path loads under SLAs populate the shadow map; skip
    // the hash probe entirely on the (typical) run without any.
    if (shadow_.empty())
        return;
    const Vid* v = shadow_.find(la);
    if (!v)
        return;
    if (*v > storeVid) {
        // Without SLAs the wrong-path load would have marked the line
        // with its higher VID and this (successful) store would have
        // triggered a false abort (§5.1, Table 1).
        ++stats_.avoidedAborts;
        shadow_.erase(la);
    } else if (*v <= lcVid_) {
        shadow_.erase(la);
    }
}

// --- loads -----------------------------------------------------------------

bool
CacheSystem::limitedSetBlocks(Vid vid, Addr la)
{
    if (!policy_.limitsSpecSets())
        return false;
    const RwSets* s = rwFind(vid);
    if (!s)
        return policy_.limitedSetExceeded(0);
    // Re-touching a line already in the sets never costs a new entry.
    if (s->reads.contains(la) || s->writes.contains(la))
        return false;
    return policy_.limitedSetExceeded(s->combinedLines());
}

AccessResult
CacheSystem::load(CoreId core, Addr a, unsigned size, Vid vid,
                  bool wrongPath)
{
    // Every path fills this one result in place: it is the caller's
    // return slot (NRVO), so the result is never copied as a whole
    // right after being written field by field (DESIGN.md §13).
    AccessResult r;
    const bool spec = cfg_.hmtxEnabled && vid != kNonSpecVid;
    bool serialized = false;
    if (spec) {
        // Wrong-path loads consult the lock passively: they must run
        // non-speculatively when their VID holds it, but they neither
        // engage it nor count as fallback work.
        serialized = wrongPath ? policy_.serializes(vid)
                               : policy_.onSpecAccess(vid, lcVid_);
        if (!serialized && !wrongPath &&
            limitedSetBlocks(vid, lineAddr(a))) {
            limitedSetLoadAbort(r);
            return r;
        }
    }

    const std::uint64_t gen0 = abortGen_;
    loadImpl(r, core, a, size, vid, wrongPath, serialized);
    if (!serialized) {
        if (!r.aborted && abortGen_ != gen0)
            retryLoadAfterFlush(r, gen0, core, a, size, vid, wrongPath);
    } else {
        if (r.aborted)
            retryHolderLoad(r, core, a, size, vid, wrongPath);
        policy_.noteFallbackCycles(r.latency);
    }
    return r;
}

void
CacheSystem::limitedSetLoadAbort(AccessResult& r)
{
    r.latency = cfg_.l1Latency;
    ++stats_.loads;
    ++stats_.specLoads;
    ++stats_.capacityAborts;
    policy_.noteLimitedSetAbort();
    triggerAbort(nullptr);
    r.aborted = true;
}

void
CacheSystem::retryLoadAfterFlush(AccessResult& r, std::uint64_t gen,
                                 CoreId core, Addr a, unsigned size,
                                 Vid vid, bool wrongPath)
{
    // A global flush can race the access mid-flight without
    // consuming it: an *optional* allocation (S-S sharer copy,
    // §5.4 refetch merge) evicts a victim whose mark cannot be
    // carried, the capacity abort flushes every speculative line —
    // including the mark this very load planted — and the access
    // then completes against pre-flush state. Architecturally the
    // completed access is the first access of the *restarted*
    // transaction, so it must re-plant its marks (and serve the
    // committed value) on post-flush state: re-run it. Post-flush
    // evictions only meet plain lines, so the retry settles.
    unsigned guard = 0;
    while (!r.aborted && abortGen_ != gen) {
        if (++guard > 4)
            throw std::logic_error("load flush-retry did not settle");
        gen = abortGen_;
        AccessResult r2;
        loadImpl(r2, core, a, size, vid, wrongPath, false);
        r2.latency += r.latency;
        r = r2;
    }
}

void
CacheSystem::retryHolderLoad(AccessResult& r, CoreId core, Addr a,
                             unsigned size, Vid vid, bool wrongPath)
{
    // The holder's own access collided with *other* VIDs' speculative
    // state (capacity eviction impossible) and the global flush it
    // raised cleared every speculative line — the holder itself has
    // none. The retry must succeed.
    AccessResult r2;
    loadImpl(r2, core, a, size, vid, wrongPath, true);
    if (r2.aborted)
        throw std::logic_error(
            "fallback load aborted again after the global flush it "
            "triggered");
    r2.latency += r.latency;
    r = r2;
}

void
CacheSystem::loadImpl(AccessResult& r, CoreId core, Addr a,
                      unsigned size, Vid vid, bool wrongPath,
                      bool serialized)
{
    const Addr la = lineAddr(a);
    assert(lineOffset(a) + size <= kLineBytes);

    r.latency = cfg_.l1Latency;
    ++stats_.loads;

    // A serialized fallback access runs with full non-speculative
    // semantics: request VID 0, no marks, no SLA, no read/write sets.
    const bool spec =
        cfg_.hmtxEnabled && vid != kNonSpecVid && !serialized;
    if (wrongPath)
        ++stats_.wrongPathLoads;
    else if (spec)
        ++stats_.specLoads;

    // Wrong-path loads move data around but, with SLAs, never mark
    // lines (§5.1). With SLAs disabled they mark like any other load,
    // which is the false-misspeculation source prior systems suffer.
    const bool mark = spec && (!wrongPath || !cfg_.slaEnabled);
    const Vid reqVid = spec ? vid : lcVid_;

    Cache& l1 = caches_[core];
    Line* v = findLocal(l1, la, reqVid, false);
    if (v) {
        ++stats_.l1Hits;
        r.l1Hit = true;
        v->lastUse = ++useClock_;
        r.value = readData(*v, a, size);
        if (mark) {
            if (v->state == State::SpecShared && v->latestCopy) {
                // Record the read on the local copy; store broadcasts
                // aggregate these distributed marks.
                if (vid > v->tag.high) {
                    r.needSla = true;
                    v->tag.high = vid;
                }
            } else {
                applyReadMark(*v, vid, r);
            }
            if (wrongPath && r.needSla)
                v->highFromWrongPath = true;
        } else if (wrongPath && spec && cfg_.slaEnabled) {
            noteShadowWrongPath(la, vid);
        }
    } else {
        ++stats_.l1Misses;
        busAcquire(r, la);
        RemoteHit rh = findRemote(core, la, reqVid);
        if (rh.line) {
            ++stats_.snoopHits;
            r.latency += net_->transferLatency() + rh.extraLatency;
            Line& o = *rh.line;
            o.lastUse = ++useClock_;
            r.value = readData(o, a, size);
            if (isSpec(o.state)) {
                // The speculative owner responds; requester keeps a
                // silent S-S copy covering VIDs <= the request's.
                if (mark && reqVid > o.tag.high) {
                    r.needSla = true;
                    o.tag.high = reqVid;
                    o.highFromWrongPath = wrongPath;
                } else if (!mark && wrongPath && spec &&
                           cfg_.slaEnabled) {
                    noteShadowWrongPath(la, vid);
                }
                LineData d = dataOf(o);
                bool latest = isSpecLatest(o.state);
                // Latest-version copies carry a local read mark —
                // zero for non-marking requests (wrong-path loads
                // must not plant marks, §5.1). Superseded copies
                // carry their coverage bound instead.
                VersionTag t{o.tag.mod,
                             latest ? (mark ? reqVid : kNonSpecVid)
                                    : reqVid + 1};
                o.mayHaveSharers = true;
                if (Line* nl = allocate(l1, la, true)) {
                    nl->state = State::SpecShared;
                    nl->tag = t;
                    nl->latestCopy = latest;
                    dataOf(*nl) = d;
                    syncLine(*nl);
                }
            } else if (mark) {
                // First speculative access: gain writable access and
                // migrate ownership to the requesting core (§4.2).
                // Peer latest-copy read marks fold into the new owner,
                // as in the local upgrade path.
                bool dirty = o.dirty || anyNonSpecDirty(la, &o);
                LineData d = dataOf(o);
                // The dirty committed payload survives only in `d`
                // once the peers are invalidated, and the allocation
                // below may capacity-abort: flush it to memory first.
                if (dirty) {
                    mem_.writeLine(la, d);
                    ++stats_.writebacks;
                }
                DroppedMark dm = invalidateNonSpecPeers(la, nullptr);
                Line* nl = allocate(l1, la);
                if (!nl) {
                    r.aborted = true;
                    return;
                }
                nl->state = specUpgradeState(dirty);
                nl->tag = {kNonSpecVid, std::max(vid, dm.high)};
                nl->dirty = dirty;
                nl->highFromWrongPath =
                    vid > dm.high ? wrongPath : dm.wrongPath;
                dataOf(*nl) = d;
                syncLine(*nl);
                // A folded peer mark covering this VID means the read
                // planted nothing new (same rule as a hit under a live
                // owner mark).
                r.needSla = vid > dm.high;
            } else {
                // Plain MOESI read miss served cache-to-cache.
                if (o.state == State::Modified)
                    o.state = State::Owned;
                else if (o.state == State::Exclusive)
                    o.state = State::Shared;
                syncLine(o);
                LineData d = dataOf(o);
                Line* nl = allocate(l1, la);
                if (!nl) {
                    r.aborted = true;
                    return;
                }
                nl->state = State::Shared;
                dataOf(*nl) = d;
                syncLine(*nl);
                if (wrongPath && spec && cfg_.slaEnabled)
                    noteShadowWrongPath(la, vid);
            }
        } else {
            // Satisfied by main memory.
            ++stats_.memFetches;
            r.latency += cfg_.memLatency;
            const LineData& md = mem_.readLine(la);
            LineData d = md;
            if (rh.assertModified) {
                // §5.4: the pristine version overflowed to memory; it
                // returns as S-O(0, reqVid + 1).
                ++stats_.soRefetches;
                // Merge with an existing local copy of the pristine
                // version, if any, to keep responder hits unambiguous.
                Line* exist = nullptr;
                for (auto& l : l1.set(la).lines) {
                    if (l.state != State::Invalid && l.base == la &&
                        isSpec(l.state) && l.tag.mod == kNonSpecVid &&
                        isSpecSuperseded(l.state)) {
                        exist = &l;
                        break;
                    }
                }
                if (exist) {
                    exist->tag.high =
                        std::max(exist->tag.high, reqVid + 1);
                    exist->lastUse = ++useClock_;
                } else if (Line* nl = allocate(l1, la, true)) {
                    // Best effort: if no slot is free the value is
                    // still served; a later conflicting store is
                    // caught conservatively by the §5.4 assertion.
                    nl->state = State::SpecOwned;
                    nl->tag = {kNonSpecVid, reqVid + 1};
                    dataOf(*nl) = d;
                    syncLine(*nl);
                }
                if (mark)
                    r.needSla = true;
            } else {
                Line* nl = allocate(l1, la);
                if (!nl) {
                    r.aborted = true;
                    return;
                }
                dataOf(*nl) = d;
                if (mark) {
                    nl->state = State::SpecExclusive;
                    nl->tag = {kNonSpecVid, vid};
                    nl->highFromWrongPath = wrongPath;
                    r.needSla = true;
                } else {
                    nl->state = State::Exclusive;
                    if (wrongPath && spec && cfg_.slaEnabled)
                        noteShadowWrongPath(la, vid);
                }
                syncLine(*nl);
            }
            r.value = 0;
            unsigned off = lineOffset(a);
            for (unsigned i = 0; i < size; ++i)
                r.value |= static_cast<std::uint64_t>(d[off + i])
                    << (8 * i);
        }
    }

    if (spec && !wrongPath) {
        // The local L1 hit is the only path hot enough to warrant the
        // rw-mark short-circuit; misses always pay the set insert.
        recordRead(vid, la, r.l1Hit ? v : nullptr);
        if (r.needSla) {
            // SLA sent once the load retires; occupies the fabric but
            // does not stall the core (§5.1).
            ++stats_.slaNeeded;
            net_->post(eq_.curTick(), FabricOp::Sla, la);
        }
    }

    // §7.1 ablation: Vachharajani's design creates a new line version
    // on every read from a new VID, adding cache pressure.
    if (cfg_.copyOnRead && mark && r.needSla && !r.aborted) {
        // A real allocation, as in Vachharajani's design: the
        // duplicate competes for ways with live lines (and can even
        // force capacity aborts), which is exactly the §7.1 critique.
        Line* dup = allocate(l1, la);
        if (dup) {
            // The duplicate models the redundant per-VID version of
            // Vachharajani's design: it competes for ways like any
            // speculative version (and is flushed once its VID
            // commits), but its empty hit range keeps it from ever
            // serving (or corrupting) a request.
            dup->state = State::SpecOwned;
            dup->tag = {1, 1};
            syncLine(*dup);
            ++stats_.corDuplicates;
        }
    }
}

// --- stores ------------------------------------------------------------------

AccessResult
CacheSystem::store(CoreId core, Addr a, std::uint64_t value,
                   unsigned size, Vid vid)
{
    ++stats_.stores;
    if (!cfg_.hmtxEnabled || vid == kNonSpecVid)
        return nonSpecStore(core, a, value, size);

    if (policy_.onSpecAccess(vid, lcVid_)) {
        // Serialized fallback: the lock holder writes committed
        // memory directly. The store can still collide with *other*
        // VIDs' speculative state; the global flush that raises
        // cannot touch the holder (it owns no speculative state), so
        // one retry after the flush always completes.
        AccessResult r = nonSpecStore(core, a, value, size);
        if (r.aborted) {
            AccessResult r2 = nonSpecStore(core, a, value, size);
            if (r2.aborted)
                throw std::logic_error(
                    "fallback store aborted again after the global "
                    "flush it triggered");
            r2.latency += r.latency;
            r = r2;
        }
        policy_.noteFallbackCycles(r.latency);
        return r;
    }

    const Addr la = lineAddr(a);
    assert(lineOffset(a) + size <= kLineBytes);

    if (limitedSetBlocks(vid, la)) {
        AccessResult r;
        r.latency = cfg_.l1Latency;
        ++stats_.specStores;
        ++stats_.capacityAborts;
        policy_.noteLimitedSetAbort();
        triggerAbort(nullptr);
        r.aborted = true;
        return r;
    }

    ++stats_.specStores;

    AccessResult r;
    r.latency = cfg_.l1Latency;
    Cache& l1 = caches_[core];

    Line* v = findLocal(l1, la, vid, true);
    if (v && v->state == State::SpecModified && v->tag.mod == vid &&
        v->tag.high == vid && !v->mayHaveSharers) {
        // We own this version exclusively: silent in-place write.
        writeData(*v, a, value, size);
        v->dirty = true;
        syncLine(*v);
        v->lastUse = ++useClock_;
        r.l1Hit = true;
        ++stats_.l1Hits;
        recordWrite(vid, la, v);
        checkShadowAvoided(la, vid);
        return r;
    }

    busAcquire(r, la);
    Line* owner = v;
    Cache* ownerCache = owner ? &l1 : nullptr;
    RemoteHit rh;
    if (!owner) {
        rh = findRemote(core, la, vid);
        owner = rh.line;
        ownerCache = rh.cache;
        if (owner)
            r.latency += net_->transferLatency() + rh.extraLatency;
    }

    if (!owner) {
        if (rh.assertModified) {
            // The superseded pristine version overflowed to memory and
            // a later version exists: this earlier store arrives out
            // of order (§4.3 / §5.4), abort conservatively.
            triggerAbort(nullptr);
            r.aborted = true;
            return r;
        }
        // Cold store miss: build the first speculative version.
        ++stats_.memFetches;
        r.latency += cfg_.memLatency;
        LineData d = mem_.readLine(la);
        Line* nl = allocate(l1, la);
        if (!nl) {
            r.aborted = true;
            return r;
        }
        nl->state = State::SpecModified;
        nl->tag = {vid, vid};
        nl->dirty = true;
        dataOf(*nl) = d;
        writeData(*nl, a, value, size);
        syncLine(*nl);
        ++stats_.newVersions;
        trace_.record({.when = eq_.curTick(), .addr = la, .core = core,
                       .vid = vid, .tag = nl->tag,
                       .kind = TraceKind::ColdNewVersion,
                       .state = nl->state});
        recordWrite(vid, la, nl);
        checkShadowAvoided(la, vid);
        return r;
    }

    // Aggregate the distributed read marks from latest-version S-S
    // copies: a peer cache may have served a higher VID locally.
    // This applies both to speculative latest owners (S-M/S-E) and to
    // non-speculative owners whose retired readers left copies.
    VersionTag eff = owner->tag;
    if (!isSpecSuperseded(owner->state)) {
        net_->post(eq_.curTick(), FabricOp::StoreAggregate, la);
        forEachSnoopTarget(la, [&](std::size_t ci) {
            for (auto& l : caches_[ci].set(la).lines) {
                if (l.state == State::SpecShared && l.base == la &&
                    l.latestCopy) {
                    eff.high = std::max(eff.high, l.tag.high);
                    if (l.highFromWrongPath &&
                        l.tag.high > owner->tag.high) {
                        owner->highFromWrongPath = true;
                    }
                }
            }
        });
    }
    StoreAction act = classifyStoreWithMarks(owner->state, eff, vid);
    if (act == StoreAction::Abort) {
        triggerAbort(owner);
        r.aborted = true;
        return r;
    }

    if (act == StoreAction::InPlace) {
        // The version exists (an MTX peer thread created it); pull it
        // into our L1 exclusively and write.
        invalidatePeerSpecShared(la, owner, vid);
        if (ownerCache != &l1) {
            Line copy = *owner;
            LineData d = dataOf(*owner);
            owner->state = State::Invalid;
            syncLine(*owner);
            Line* nl = allocate(l1, la);
            if (!nl) {
                r.aborted = true;
                return r;
            }
            *nl = copy;
            dataOf(*nl) = d;
            owner = nl;
        }
        owner->mayHaveSharers = false;
        writeData(*owner, a, value, size);
        owner->dirty = true;
        syncLine(*owner);
        owner->lastUse = ++useClock_;
        recordWrite(vid, la, owner);
        checkShadowAvoided(la, vid);
        return r;
    }

    // NewVersion: keep the pristine copy in S-O and create S-M(y,y).
    LineData base = dataOf(*owner);
    if (isSpec(owner->state)) {
        owner->state = State::SpecOwned;
        owner->tag.high = vid;
    } else {
        // The hitting copy may be a clean Shared one while a dirty
        // Owned copy lives elsewhere; the surviving S-O owner must
        // inherit the true dirtiness or committed data could be
        // dropped on eviction.
        owner->dirty = owner->dirty || anyNonSpecDirty(la, owner);
        owner->state = State::SpecOwned;
        owner->tag = {kNonSpecVid, vid};
    }
    owner->mayHaveSharers = false;
    syncLine(*owner);
    fixPeersForNewVersion(la, owner, vid);
    Line* nl = allocate(l1, la);
    if (!nl) {
        r.aborted = true;
        return r;
    }
    nl->state = State::SpecModified;
    nl->tag = {vid, vid};
    nl->dirty = true;
    dataOf(*nl) = base;
    writeData(*nl, a, value, size);
    syncLine(*nl);
    ++stats_.newVersions;
    trace_.record({.when = eq_.curTick(), .addr = la, .core = core,
                   .vid = vid, .tag = nl->tag,
                   .kind = TraceKind::NewVersion, .state = nl->state});
    recordWrite(vid, la, nl);
    checkShadowAvoided(la, vid);
    return r;
}

AccessResult
CacheSystem::nonSpecStore(CoreId core, Addr a, std::uint64_t value,
                          unsigned size)
{
    const Addr la = lineAddr(a);
    AccessResult r;
    r.latency = cfg_.l1Latency;
    Cache& l1 = caches_[core];

    Line* v = findLocal(l1, la, lcVid_, true);
    if (v && (v->state == State::Modified ||
              v->state == State::Exclusive)) {
        writeData(*v, a, value, size);
        v->state = State::Modified;
        v->dirty = true;
        syncLine(*v);
        v->lastUse = ++useClock_;
        r.l1Hit = true;
        ++stats_.l1Hits;
        return r;
    }

    busAcquire(r, la);
    Line* owner = v;
    RemoteHit rh;
    if (!owner) {
        rh = findRemote(core, la, lcVid_);
        owner = rh.line;
        if (owner)
            r.latency += net_->transferLatency() + rh.extraLatency;
    }

    if (owner && isSpec(owner->state)) {
        // Committed code is writing data a live transaction touched:
        // conservative abort (the transaction read stale state).
        triggerAbort(owner);
        r.aborted = true;
        return r;
    }
    // Distributed read marks: a live transaction may have recorded
    // its read on a latest-version S-S copy instead of the owner.
    // Find the offender first, then abort: triggerAbort rewrites the
    // whole cache system and must not run mid-snoop.
    Line* offender = nullptr;
    forEachSnoopTarget(la, [&](std::size_t ci) {
        if (offender)
            return;
        for (auto& l : caches_[ci].set(la).lines) {
            if (l.state == State::SpecShared && l.base == la &&
                l.latestCopy && l.tag.high > lcVid_) {
                offender = &l;
                return;
            }
        }
    });
    if (offender) {
        triggerAbort(offender);
        r.aborted = true;
        return r;
    }

    LineData d;
    if (owner) {
        d = dataOf(*owner);
    } else {
        if (rh.assertModified) {
            triggerAbort(nullptr);
            r.aborted = true;
            return r;
        }
        ++stats_.memFetches;
        r.latency += cfg_.memLatency;
        d = mem_.readLine(la);
    }

    // The peers about to be invalidated may include the only dirty
    // copy of the committed line (the owner itself, or an O copy when
    // a clean S copy answered). Its payload lives only in `d` from
    // here on — and the allocation below may capacity-abort, dropping
    // `d` — so flush the committed data to memory first.
    if ((owner && owner->dirty) || anyNonSpecDirty(la, owner)) {
        mem_.writeLine(la, d);
        ++stats_.writebacks;
    }
    invalidateNonSpecPeers(la, nullptr);
    Line* nl = allocate(l1, la);
    if (!nl) {
        r.aborted = true;
        return r;
    }
    nl->state = State::Modified;
    nl->dirty = true;
    dataOf(*nl) = d;
    writeData(*nl, a, value, size);
    syncLine(*nl);
    return r;
}

// --- SLA ----------------------------------------------------------------

bool
CacheSystem::slaConfirm(CoreId core, const SlaEntry& e)
{
    const Addr la = lineAddr(e.addr);
    net_->post(eq_.curTick(), FabricOp::Sla, la);

    Cache& l1 = caches_[core];
    Line* cur = findLocal(l1, la, e.vid, false);
    if (!cur) {
        RemoteHit rh = findRemote(core, la, e.vid);
        cur = rh.line;
    }

    std::uint64_t now;
    if (cur) {
        now = readData(*cur, e.addr, e.size);
    } else {
        now = mem_.read(e.addr, e.size);
    }
    if (now != e.value) {
        ++stats_.slaMismatchAborts;
        trace_.record({.when = eq_.curTick(), .addr = e.addr,
                       .core = core, .vid = e.vid,
                       .kind = TraceKind::SlaMismatch});
        triggerAbort(nullptr);
        return false;
    }
    if (cur && cur->state != State::SpecShared) {
        AccessResult dummy;
        applyReadMark(*cur, e.vid, dummy);
    }
    ++stats_.slaConfirms;
    return true;
}

} // namespace hmtx::sim
