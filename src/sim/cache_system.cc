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
    // The presence mask is one bit per cache; fall back to full snoops
    // beyond 64 caches (far above any modeled configuration).
    filterEnabled_ = caches_.size() <= 64;
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
    presence_.clear();
    idxStats_ = {};
    shadow_.clear();
    rwReleaseAll();
    rwCachedVid_ = 0;
    rwGen_ = 1;
}

// --- index maintenance --------------------------------------------------

void
CacheSystem::presenceAdd(std::uint32_t ci, Addr la)
{
    presence_[la] |= std::uint64_t{1} << ci;
}

void
CacheSystem::presenceRemove(std::uint32_t ci, Addr la)
{
    std::uint64_t* mask = presence_.find(la);
    if (!mask)
        return; // unreachable while bookkeeping is sound
    // The mask carries no per-cache counts: rescan the (tiny) owning
    // set to learn whether another version of la keeps the bit alive.
    // The caller already cleared the departing line's `present` flag.
    for (const auto& l : caches_[ci].set(la).lines)
        if (l.bk.present && l.bk.presentAddr == la)
            return;
    *mask &= ~(std::uint64_t{1} << ci);
    if (*mask == 0)
        presence_.erase(la);
}

void
CacheSystem::syncLine(Line& l)
{
    const std::uint32_t ci = l.bk.cacheId;
    if (ci == kNoCacheId)
        return; // overflow-table entries and snapshots are unindexed
    const bool valid = l.state != State::Invalid;
    if (filterEnabled_) {
        if (l.bk.present && (!valid || l.bk.presentAddr != l.base)) {
            // Clear the flag before the rescan in presenceRemove so
            // this line no longer counts for its old address.
            l.bk.present = false;
            presenceRemove(ci, l.bk.presentAddr);
        }
        if (valid && !l.bk.present) {
            presenceAdd(ci, l.base);
            l.bk.present = true;
            l.bk.presentAddr = l.base;
        }
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
    // this self-check also cross-checks the presence filter and the
    // registries against a full scan, for free.
    verifyIndexes();

    // Collect every cached address. The presence filter already keys
    // on exactly the live addresses; fall back to a full scan when it
    // is disabled.
    auto& addrs = checkAddrs_;
    addrs.clear();
    if (filterEnabled_) {
        presence_.forEach(
            [&](Addr la, std::uint64_t) { addrs.insert(la); });
    } else {
        for (auto& c : caches_) {
            c.forEachLine([&](Line& l) {
                if (l.state != State::Invalid)
                    addrs.insert(l.base);
            });
        }
    }
    // Spilled versions are live protocol state too: a responder in the
    // overflow table conflicts with cached versions exactly as if it
    // were still in the L2. The presence filter only tracks caches, so
    // collect their addresses separately (const walk — no lazy
    // reconciliation, this check must stay observation-only).
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
    // Rebuild the expected presence masks from a full scan and check
    // the per-slot bookkeeping along the way.
    auto& want = checkWant_;
    want.clear();
    for (std::size_t ci = 0; ci < caches_.size(); ++ci) {
        caches_[ci].forEachLine([&](Line& l) {
            if (l.bk.cacheId != ci) {
                throw std::logic_error(
                    "index check: slot carries wrong cache id in " +
                    caches_[ci].name());
            }
            if (l.state == State::Invalid) {
                if (filterEnabled_ && l.bk.present) {
                    throw std::logic_error(
                        "index check: invalid line still counted "
                        "present in " + caches_[ci].name());
                }
                return;
            }
            if (filterEnabled_ &&
                (!l.bk.present || l.bk.presentAddr != l.base)) {
                throw std::logic_error(
                    "index check: valid line not counted under its "
                    "address in " + caches_[ci].name());
            }
            if (Cache::specInteresting(l) && !l.bk.onSpecReg) {
                throw std::logic_error(
                    "index check: spec line missing from the spec "
                    "registry of " + caches_[ci].name());
            }
            if (Cache::dirtyInteresting(l) && !l.bk.onDirtyReg) {
                throw std::logic_error(
                    "index check: dirty line missing from the dirty "
                    "registry of " + caches_[ci].name());
            }
            if (filterEnabled_)
                want[l.base] |= std::uint64_t{1} << ci;
        });
    }
    if (filterEnabled_) {
        const std::size_t tracked = presence_.size();
        if (want.size() != tracked) {
            throw std::logic_error(
                "index check: presence filter tracks " +
                std::to_string(tracked) + " addresses, scan found " +
                std::to_string(want.size()));
        }
        want.forEach([&](Addr la, std::uint64_t mask) {
            const std::uint64_t* got = presence_.find(la);
            if (!got) {
                throw std::logic_error(
                    "index check: cached address missing from the "
                    "presence filter");
            }
            if (*got != mask) {
                throw std::logic_error(
                    "index check: presence mask mismatch");
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
