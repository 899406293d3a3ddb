/**
 * @file
 * CacheSystem construction, index maintenance, and self-checks. The
 * lookup, access, and bulk-operation halves live in the sibling
 * cache_system_*.cc translation units.
 */

#include "sim/cache_system.hh"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <string>

namespace hmtx::sim
{

CacheSystem::CacheSystem(EventQueue& eq, const MachineConfig& cfg)
    : eq_(eq), cfg_(cfg), policy_(cfg.txPolicy()),
      trace_(cfg.traceEnabled)
{
    cfg_.validate();

    caches_.reserve(cfg.numCores + 1);
    for (CoreId c = 0; c < cfg.numCores; ++c) {
        caches_.emplace_back("L1." + std::to_string(c), cfg.l1Sets(),
                             cfg.l1Assoc, c);
    }
    caches_.emplace_back("L2", cfg.l2Sets(), cfg.l2Assoc,
                         cfg.numCores);
    net_ = makeInterconnect(cfg_, stats_);
    snapshot(initial_);
}

void
CacheSystem::snapshot(Snapshot& s) const
{
    // Every vector keeps its capacity and grows geometrically (never
    // by an exact reserve): a Snapshot's memory resource may be a
    // monotonic arena, which keeps every block it handed out, so
    // re-snapshotting a slowly growing footprint must not take a new
    // block each time.
    CacheImage& img = s.caches;
    img.clear();
    for (const Cache& c : caches_)
        c.save(img);

    // Only the live rw sets: the spares beyond rwLive_ are cleared.
    s.rw.clear();
    s.rwLines.clear();
    for (std::size_t i = 0; i < rwLive_; ++i) {
        const RwSets& r = rwSets_[i];
        s.rw.push_back({r.vid, static_cast<std::uint32_t>(r.reads.size()),
                        static_cast<std::uint32_t>(r.writes.size())});
        r.reads.forEach([&](Addr la) { s.rwLines.push_back(la); });
        r.writes.forEach([&](Addr la) { s.rwLines.push_back(la); });
    }
    s.rwCachedVid = rwCachedVid_;
    s.rwCachedSlot = rwCachedSlot_;
    s.rwGen = rwGen_;

    s.shadow.clear();
    shadow_.forEach([&](Addr la, Vid v) { s.shadow.emplace_back(la, v); });
    s.mem.clear();
    mem_.forEachLine(
        [&](Addr a, const LineData& d) { s.mem.emplace_back(a, d); });
    // The overflow table is usually unused; skip copying one unused
    // table over another.
    if (!(overflow_.pristine() && s.overflow.pristine()))
        s.overflow = overflow_;

    s.stats = stats_;
    s.idxStats = idxStats_;
    s.useClock = useClock_;
    s.lcVid = lcVid_;
    s.abortGen = abortGen_;
    s.policy = policy_;
    net_->saveOccupancy(s.nextFree);
    s.chooser = net_->deliveryChooser();
    s.tick = eq_.curTick();
}

void
CacheSystem::restore(const Snapshot& s)
{
    CacheImage::Cursor cur;
    for (Cache& c : caches_)
        c.restore(s.caches, cur);

    // Rebuild each live VID's sets in its old slot. The hash tables
    // may lay their keys out differently than before, but every use
    // of them is order-free (membership, sizes, sorted listings).
    const std::size_t live = s.rw.size();
    if (rwSets_.size() < live)
        rwSets_.resize(live);
    for (std::size_t i = live; i < rwLive_; ++i)
        rwSets_[i].clear();
    rwSlot_.clear();
    std::size_t at = 0;
    for (std::size_t i = 0; i < live; ++i) {
        const Snapshot::RwImage& ri = s.rw[i];
        RwSets& r = rwSets_[i];
        r.clear();
        r.vid = ri.vid;
        for (std::uint32_t k = 0; k < ri.reads; ++k)
            r.addRead(s.rwLines[at++]);
        for (std::uint32_t k = 0; k < ri.writes; ++k)
            r.addWrite(s.rwLines[at++]);
        rwSlot_[ri.vid] = static_cast<std::uint32_t>(i);
    }
    rwLive_ = live;
    rwCachedVid_ = s.rwCachedVid;
    rwCachedSlot_ = s.rwCachedSlot;
    rwGen_ = s.rwGen;

    shadow_.clear();
    for (const auto& [la, v] : s.shadow)
        shadow_[la] = v;
    mem_.assign(s.mem);
    if (!(overflow_.pristine() && s.overflow.pristine()))
        overflow_ = s.overflow;

    stats_ = s.stats;
    idxStats_ = s.idxStats;
    useClock_ = s.useClock;
    lcVid_ = s.lcVid;
    abortGen_ = s.abortGen;
    policy_ = s.policy;
    net_->restoreOccupancy(s.nextFree);
    net_->setDeliveryChooser(s.chooser);
    eq_.rewind(s.tick);
}

bool
CacheSystem::sameStructure(const MachineConfig& cfg) const
{
    return cfg.numCores == cfg_.numCores && cfg.l1SizeKB == cfg_.l1SizeKB &&
        cfg.l1Assoc == cfg_.l1Assoc && cfg.l2SizeKB == cfg_.l2SizeKB &&
        cfg.l2Assoc == cfg_.l2Assoc && cfg.fabric == cfg_.fabric &&
        cfg.dirBanks == cfg_.dirBanks;
}

void
CacheSystem::reset(const MachineConfig& cfg)
{
    if (!sameStructure(cfg))
        throw std::invalid_argument(
            "CacheSystem::reset: the config changes the machine's "
            "structure (cores, caches, fabric); build a new system");
    cfg.validate();
    // Everything else the constructor derives from the config is the
    // policy; the rest of the construction snapshot depends on the
    // structure alone.
    cfg_ = cfg;
    initial_.policy = TxPolicy(cfg_.txPolicy());
    restore(initial_);
    trace_.reset(cfg_.traceEnabled);
}

// --- index maintenance --------------------------------------------------

void
CacheSystem::syncLine(Line& l)
{
    const std::uint32_t ci = l.bk.cacheId;
    if (ci == kNoCacheId)
        return; // overflow-table entries and snapshots are unindexed
    const bool valid = l.state != State::Invalid;
    // Every address a slot can take maps to the slot's own set.
    if (l.bk.present && (!valid || l.bk.presentAddr != l.base)) {
        // The word keeps no counts, so rebuild it from the slots that
        // stay present; clear the flag first so this one drops out.
        l.bk.present = false;
        LineSet& s = caches_[ci].set(l.bk.presentAddr);
        std::uint64_t tags = 0;
        for (const Line& o : s.lines)
            if (o.bk.present)
                tags |= tagBit(o.bk.presentAddr);
        s.tags = tags;
    }
    if (valid && !l.bk.present) {
        caches_[ci].set(l.base).tags |= tagBit(l.base);
        l.bk.present = true;
        l.bk.presentAddr = l.base;
    }
    if (valid && (isSpec(l.state) || l.dirty))
        caches_[ci].noteInteresting(l);
}

// --- validation-set accessors -------------------------------------------

void
CacheSystem::readSetOf(Vid vid, std::vector<Addr>& out) const
{
    out.clear();
    if (const RwSets* s = rwFind(vid))
        s->reads.forEach([&](Addr la) { out.push_back(la); });
    std::sort(out.begin(), out.end());
}

void
CacheSystem::writeSetOf(Vid vid, std::vector<Addr>& out) const
{
    out.clear();
    if (const RwSets* s = rwFind(vid))
        s->writes.forEach([&](Addr la) { out.push_back(la); });
    std::sort(out.begin(), out.end());
}

// --- self-checks --------------------------------------------------------

void
CacheSystem::checkInvariants()
{
    // Police the index structures first: every existing call site of
    // this self-check also cross-checks the set summaries and the
    // registries against a full scan, for free.
    verifyIndexes();

    // Collect every cached address (a handful: sort, then drop the
    // duplicates).
    auto& addrs = checkAddrs_;
    addrs.clear();
    for (auto& c : caches_) {
        c.forEachReservedSet([&](const LineSet& s) {
            for (const Line& l : s.lines)
                if (l.state != State::Invalid)
                    addrs.push_back(l.base);
        });
    }
    // Spilled versions are live protocol state too: a responder in the
    // overflow table conflicts with cached versions exactly as if it
    // were still in the L2, so collect their addresses as well (const
    // walk — no lazy reconciliation, this check must stay
    // observation-only).
    overflow_.forEachConst([&](const Line& l, const LineData&) {
        if (l.state != State::Invalid)
            addrs.push_back(l.base);
    });
    std::sort(addrs.begin(), addrs.end());
    addrs.erase(std::unique(addrs.begin(), addrs.end()), addrs.end());
    const Vid maxV = cfg_.maxVid();
    for (const Addr la : addrs) {
        // The check judges lines as of the current LC VID, so fold the
        // lazy-commit transitions into *snapshots* — the cached state
        // itself stays untouched (this check is read-only).
        auto& live = checkLive_;
        live.clear();
        for (auto& c : caches_) {
            for (auto& l : c.set(la).lines) {
                if (l.state == State::Invalid || l.base != la)
                    continue;
                Line s = l;
                applyReconcile(s);
                if (s.state != State::Invalid)
                    live.push_back({s.state, s.tag});
            }
        }
        if (const LineSet* vs = overflow_.versionsOf(la)) {
            for (const Line& l : vs->lines) {
                if (l.state == State::Invalid)
                    continue;
                Line s = l;
                applyReconcile(s);
                if (s.state != State::Invalid)
                    live.push_back({s.state, s.tag});
            }
        }
        bool anySpec = false, anyNonSpec = false, responder = false;
        for (const LineVersion& s : live) {
            (isSpec(s.state) ? anySpec : anyNonSpec) = true;
            responder = responder || isSpecResponder(s.state);
        }
        // Only responder-class speculative versions conflict with
        // non-speculative copies; S-S copies of committed data
        // legally linger until their readers commit.
        if (anySpec && anyNonSpec && responder) {
            throw std::logic_error(
                "protocol invariant violated: speculative and "
                "non-speculative versions coexist");
        }
        if (firstResponderConflict(live, maxV)) {
            throw std::logic_error(
                "protocol invariant violated: multiple distinct "
                "responder versions hit one VID");
        }
    }
}

void
CacheSystem::verifyIndexes()
{
    ++idxStats_.crossChecks;
    // Check the per-slot bookkeeping, and that every set's summary is
    // exactly the OR over its valid lines: a missing bit would hide a
    // holder from the snoops, a stale one would only cost scans, but
    // either means syncLine() missed a transition.
    for (std::size_t ci = 0; ci < caches_.size(); ++ci) {
        Cache& c = caches_[ci];
        c.forEachReservedSet([&](const LineSet& s) {
            std::uint64_t tags = 0;
            for (const Line& l : s.lines) {
                if (l.bk.cacheId != ci) {
                    throw std::logic_error(
                        "index check: slot carries wrong cache id in " +
                        c.name());
                }
                if (l.state == State::Invalid) {
                    if (l.bk.present) {
                        throw std::logic_error(
                            "index check: invalid line still counted "
                            "present in " + c.name());
                    }
                    continue;
                }
                if (!l.bk.present || l.bk.presentAddr != l.base) {
                    throw std::logic_error(
                        "index check: valid line not counted under "
                        "its address in " + c.name());
                }
                if (Cache::specInteresting(l) && !l.bk.onSpecReg) {
                    throw std::logic_error(
                        "index check: spec line missing from the spec "
                        "registry of " + c.name());
                }
                if (Cache::dirtyInteresting(l) && !l.bk.onDirtyReg) {
                    throw std::logic_error(
                        "index check: dirty line missing from the "
                        "dirty registry of " + c.name());
                }
                tags |= tagBit(l.base);
            }
            if (s.tags != tags) {
                throw std::logic_error(
                    "index check: set tag summary mismatch in " +
                    c.name());
            }
        });
    }
    // The O(1) combined-set counters must equal a recount of every
    // live VID's reads ∪ writes (the limited-set K bound reads them).
    for (std::size_t i = 0; i < rwLive_; ++i) {
        const RwSets& rs = rwSets_[i];
        std::size_t n = rs.reads.size();
        rs.writes.forEach([&](Addr w) { n += !rs.reads.contains(w); });
        if (n != rs.combinedLines()) {
            throw std::logic_error(
                "index check: VID " + std::to_string(rs.vid) +
                " counts " + std::to_string(rs.combinedLines()) +
                " combined rw-set lines, recount found " +
                std::to_string(n));
        }
    }
    // Registries may hold stale (no longer in-class) entries, but
    // every entry must be one of the cache's live slots (a restore
    // refills set buffers in place, so their pointers stay valid), and
    // flagged and unique within its class so lazy purging stays
    // linear. Registries are short: sort a copy to find duplicates.
    auto& seen = checkRegs_;
    auto unique = [&seen] {
        std::sort(seen.begin(), seen.end(), std::less<>());
        return std::adjacent_find(seen.begin(), seen.end()) == seen.end();
    };
    for (auto& c : caches_) {
        seen.clear();
        c.forEachSpecRegistryEntry([&](const Line* l) {
            if (!c.ownsSlot(l)) {
                throw std::logic_error(
                    "index check: spec-registry entry outside the "
                    "slots of " + c.name());
            }
            if (!l->bk.onSpecReg) {
                throw std::logic_error(
                    "index check: unflagged spec-registry entry in " +
                    c.name());
            }
            seen.push_back(l);
        });
        if (!unique()) {
            throw std::logic_error(
                "index check: duplicate spec-registry entry in " +
                c.name());
        }
        seen.clear();
        c.forEachDirtyRegistryEntry([&](const Line* l) {
            if (!c.ownsSlot(l)) {
                throw std::logic_error(
                    "index check: dirty-registry entry outside the "
                    "slots of " + c.name());
            }
            if (!l->bk.onDirtyReg) {
                throw std::logic_error(
                    "index check: unflagged dirty-registry entry "
                    "in " + c.name());
            }
            seen.push_back(l);
        });
        if (!unique()) {
            throw std::logic_error(
                "index check: duplicate dirty-registry entry in " +
                c.name());
        }
    }
}

} // namespace hmtx::sim
