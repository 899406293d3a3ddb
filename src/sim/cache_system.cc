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
    if (filterEnabled_) {
        // Pre-size for the L1 working sets so steady-state traffic
        // does not rehash; larger footprints grow amortized.
        const std::size_t l1Slots = std::size_t{cfg.numCores} *
            cfg.l1Sets() * cfg.l1Assoc;
        const std::size_t total = std::min<std::size_t>(
            std::max<std::size_t>(l1Slots, 1024), 1u << 16);
        presence_.reserve(total);
    }
    net_ = makeInterconnect(cfg_, stats_);
    // Fast path only under the plain HMTX policies: best-effort and
    // limited-set interpose per-access policy state (fallback lock,
    // K bound) the tag cannot vouch for, and copy-on-read makes every
    // new-VID read allocate (never a pure hit).
    fastEnabled_ = cfg_.fastPath && !cfg_.copyOnRead &&
        (cfg_.txMode == TxMode::LazyHmtx ||
         cfg_.txMode == TxMode::EagerHmtx);
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
    auto it = presence_.find(la);
    if (it == presence_.end())
        return; // unreachable while bookkeeping is sound
    // The mask carries no per-cache counts: rescan the (tiny) owning
    // set to learn whether another version of la keeps the bit alive.
    // The caller already cleared the departing line's `present` flag.
    for (const auto& l : caches_[ci].set(la).lines)
        if (l.bk.present && l.bk.presentAddr == la)
            return;
    it->second &= ~(std::uint64_t{1} << ci);
    if (it->second == 0)
        presence_.erase(it);
}

void
CacheSystem::syncLine(Line& l)
{
    // Every protocol mutation funnels through here; the fast-path tags
    // vouch for the line's exact state, so any such mutation retires
    // them. (Sites that mutate tag/state without calling syncLine
    // carry their own explicit fpClear.)
    fpClear(l);
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
    auto it = rw_.find(vid);
    if (it == rw_.end())
        return {};
    std::vector<Addr> out(it->second.reads.begin(),
                          it->second.reads.end());
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<Addr>
CacheSystem::writeSetOf(Vid vid) const
{
    auto it = rw_.find(vid);
    if (it == rw_.end())
        return {};
    std::vector<Addr> out(it->second.writes.begin(),
                          it->second.writes.end());
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
        for (const auto& [la, p] : presence_)
            addrs.insert(la);
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
    for (Addr la : addrs) {
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
        overflow_.forEachConst([&](const Line& l, const LineData&) {
            if (l.state == State::Invalid || l.base != la)
                return;
            Line s = l;
            applyReconcile(s);
            if (s.state != State::Invalid)
                live.push_back({s.state, s.tag});
        });
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
        for (const auto& [la, mask] : want) {
            auto it = presence_.find(la);
            if (it == presence_.end()) {
                throw std::logic_error(
                    "index check: cached address missing from the "
                    "presence filter");
            }
            if (it->second != mask) {
                throw std::logic_error(
                    "index check: presence mask mismatch");
            }
        }
    }
    // Registries may hold stale (no longer in-class) entries, but
    // every entry must be flagged and unique within its class so lazy
    // purging stays linear.
    auto& seenSpec = checkSeenSpec_;
    auto& seenDirty = checkSeenDirty_;
    for (auto& c : caches_) {
        seenSpec.clear();
        seenDirty.clear();
        c.forEachSpecRegistryEntry([&](const Line* l) {
            if (!l->bk.onSpecReg) {
                throw std::logic_error(
                    "index check: unflagged spec-registry entry in " +
                    c.name());
            }
            if (!seenSpec.insert(l).second) {
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
            if (!seenDirty.insert(l).second) {
                throw std::logic_error(
                    "index check: duplicate dirty-registry entry "
                    "in " + c.name());
            }
        });
    }
}

} // namespace hmtx::sim
