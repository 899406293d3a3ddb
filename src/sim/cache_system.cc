/**
 * @file
 * CacheSystem construction, index maintenance, and self-checks. The
 * lookup, access, and bulk-operation halves live in the sibling
 * cache_system_*.cc translation units.
 */

#include "sim/cache_system.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hmtx::sim
{

CacheSystem::CacheSystem(EventQueue& eq, const MachineConfig& cfg)
    : eq_(eq), cfg_(cfg), cmp_(cfg.vidBits), policy_(cfg.txPolicy()),
      trace_(cfg.traceFlags)
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
}

void
CacheSystem::reset()
{
    useClock_ = 0;
    mem_.clear();
    for (Cache& c : caches_)
        c.reset();
    lcVid_ = 0;
    abortGen_ = 0;
    cmp_.clear();
    stats_ = {};
    policy_.reset();
    net_->reset();
    trace_.reset(cfg_.traceFlags);
    overflow_.reset();
    idxStats_ = {};
    shadow_.clear();
    rwReleaseAll();
    rwCachedVid_ = 0;
    rwGen_ = 1;
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

void
CacheSystem::maybeCrossCheck()
{
    if (cfg_.indexCrossCheck)
        verifyIndexes();
}

// --- validation-set accessors -------------------------------------------

std::vector<Addr>
CacheSystem::readSetOf(Vid vid) const
{
    std::vector<Addr> out;
    if (const RwSets* s = rwFind(vid))
        s->reads.forEach([&](Addr la) { out.push_back(la); });
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Addr>
CacheSystem::writeSetOf(Vid vid) const
{
    std::vector<Addr> out;
    if (const RwSets* s = rwFind(vid))
        s->writes.forEach([&](Addr la) { out.push_back(la); });
    std::sort(out.begin(), out.end());
    return out;
}

// --- self-checks --------------------------------------------------------

void
CacheSystem::checkInvariants()
{
    // Police the index structures first: every existing call site of
    // this self-check also cross-checks the set summaries and the
    // registries against a full scan, for free.
    verifyIndexes();

    // Collect every cached address.
    auto& addrs = checkAddrs_;
    addrs.clear();
    for (auto& c : caches_) {
        c.forEachLine([&](Line& l) {
            if (l.state != State::Invalid)
                addrs.insert(l.base);
        });
    }
    // Spilled versions are live protocol state too: a responder in the
    // overflow table conflicts with cached versions exactly as if it
    // were still in the L2, so collect their addresses as well (const
    // walk — no lazy reconciliation, this check must stay
    // observation-only).
    overflow_.forEachConst([&](const Line& l, const LineData&) {
        if (l.state != State::Invalid)
            addrs.insert(l.base);
    });
    const Vid maxV = cfg_.maxVid();
    addrs.forEach([&](Addr la) {
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
    });
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
        c.forEachSet([&](LineSet& s) {
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
    // every entry must be flagged and unique within its class so lazy
    // purging stays linear.
    auto& seenSpec = checkSeenSpec_;
    auto& seenDirty = checkSeenDirty_;
    auto key = [](const Line* l) {
        return static_cast<Addr>(reinterpret_cast<std::uintptr_t>(l));
    };
    for (auto& c : caches_) {
        seenSpec.clear();
        seenDirty.clear();
        c.forEachSpecRegistryEntry([&](const Line* l) {
            if (!l->bk.onSpecReg) {
                throw std::logic_error(
                    "index check: unflagged spec-registry entry in " +
                    c.name());
            }
            if (!seenSpec.insert(key(l))) {
                throw std::logic_error(
                    "index check: duplicate spec-registry entry in " +
                    c.name());
            }
        });
        c.forEachDirtyRegistryEntry([&](const Line* l) {
            if (!l->bk.onDirtyReg) {
                throw std::logic_error(
                    "index check: unflagged dirty-registry entry "
                    "in " + c.name());
            }
            if (!seenDirty.insert(key(l))) {
                throw std::logic_error(
                    "index check: duplicate dirty-registry entry "
                    "in " + c.name());
            }
        });
    }
}

} // namespace hmtx::sim
