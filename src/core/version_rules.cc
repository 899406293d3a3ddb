#include "core/version_rules.hh"

#include <cassert>

namespace hmtx
{

bool
versionHits(State st, VersionTag t, Vid a)
{
    switch (st) {
      case State::Invalid:
        return false;
      case State::Shared:
      case State::Exclusive:
      case State::Owned:
      case State::Modified:
        // Tag comparison is done by the cache; every valid
        // non-speculative version is a candidate for any VID.
        return true;
      case State::SpecModified:
      case State::SpecExclusive:
        return a >= t.mod;
      case State::SpecOwned:
      case State::SpecShared:
        return a >= t.mod && a < t.high;
    }
    return false;
}

StoreAction
classifyStore(State st, VersionTag t, Vid y)
{
    assert(y != kNonSpecVid);
    assert(versionHits(st, t, y));

    if (isSpecSuperseded(st)) {
        // A later access already superseded this version; the store
        // arrives out of order (§4.3, output/flow dependence cases).
        return StoreAction::Abort;
    }
    if (isSpecLatest(st)) {
        if (y < t.high) {
            // A higher VID already read (or, conservatively, accessed)
            // this version; the store would violate a flow dependence.
            return StoreAction::Abort;
        }
        if (y == t.mod) {
            // Our own transaction already owns this version.
            return StoreAction::InPlace;
        }
        return StoreAction::NewVersion;
    }
    // First speculative write to a non-speculative line: keep the
    // pristine copy and build a new version.
    return StoreAction::NewVersion;
}

namespace
{

/** Retire a fully committed line to its non-speculative state. */
LineTransition
retire(State st, bool dirty)
{
    switch (st) {
      case State::SpecModified:
        return {State::Modified, {}};
      case State::SpecExclusive:
        // S-E is clean by construction; return to a clean state and
        // avoid an unnecessary writeback (§4.1).
        return {dirty ? State::Modified : State::Exclusive, {}};
      case State::SpecOwned:
      case State::SpecShared:
        // Superseded versions are dead once every accessor committed.
        return {State::Invalid, {}};
      default:
        return {st, {}};
    }
}

} // namespace

LineTransition
commitLine(State st, VersionTag t, Vid c, bool dirty)
{
    if (!isSpec(st))
        return {st, t};
    if (st == State::SpecShared && t.high <= c + 1) {
        // An S-S copy covers VIDs < high, so its highest possible
        // accessor is high - 1; once that commits the copy is dead.
        // (Owner-class S-O versions must instead survive until `high`
        // itself commits: they feed non-speculative reads while the
        // superseding write is still uncommitted.)
        return retire(st, dirty);
    }
    if (t.high <= c)
        return retire(st, dirty);
    if (t.mod != kNonSpecVid && t.mod <= c) {
        // The creating transaction committed but later accessors are
        // still outstanding: only the modVID clears (Figure 6).
        return {st, {kNonSpecVid, t.high}};
    }
    return {st, t};
}

LineTransition
abortLine(State st, VersionTag t, Vid c, bool dirty)
{
    if (!isSpec(st))
        return {st, t};
    if (t.mod > c) {
        // Uncommitted speculative modification: flush (Figure 7).
        return {State::Invalid, {}};
    }
    if (t.high <= c) {
        // The line had fully retired before the abort but was not yet
        // reconciled; apply the commit outcome.
        return retire(st, dirty);
    }
    // Committed (or never-modified) data read by an aborted
    // transaction: the data survives, the speculative marking clears.
    switch (st) {
      case State::SpecModified:
        return {State::Modified, {}};
      case State::SpecExclusive:
        return {dirty ? State::Modified : State::Exclusive, {}};
      case State::SpecOwned:
        // The superseding version was flushed; this copy is the live
        // one again. Peer S-S copies may exist, so land in a
        // shareable state.
        return {dirty ? State::Owned : State::Shared, {}};
      case State::SpecShared:
        return {State::Shared, {}};
      default:
        return {st, t};
    }
}

LineTransition
resetLine(State st, VersionTag t, bool dirty)
{
    if (!isSpec(st))
        return {st, t};
    // A VID reset is only legal once every outstanding transaction has
    // committed (§4.6), so latest versions hold committed data and
    // superseded versions can never hit again.
    (void)t;
    switch (st) {
      case State::SpecModified:
        return {State::Modified, {}};
      case State::SpecExclusive:
        return {dirty ? State::Modified : State::Exclusive, {}};
      case State::SpecOwned:
      case State::SpecShared:
        return {State::Invalid, {}};
      default:
        return {st, t};
    }
}

namespace
{

/** True when the first two responders of @p live hitting @p a carry
 *  distinct modVIDs. */
bool
respondersDisagreeAt(std::span<const LineVersion> live, Vid a)
{
    Vid first = kNonSpecVid;
    bool seen = false;
    for (const LineVersion& v : live) {
        if (!isSpecResponder(v.state) || !versionHits(v.state, v.tag, a))
            continue;
        if (seen)
            return v.tag.mod != first;
        first = v.tag.mod;
        seen = true;
    }
    return false;
}

} // namespace

std::optional<Vid>
firstResponderConflict(std::span<const LineVersion> live, Vid maxVid)
{
    // The smallest violating VID starts a run on which the responders
    // hitting it are constant, so it is one of the probed endpoints.
    std::optional<Vid> first;
    auto probe = [&](Vid a) {
        if (a <= maxVid && (!first || a < *first) &&
            respondersDisagreeAt(live, a))
            first = a;
    };
    probe(0);
    for (const LineVersion& v : live) {
        if (!isSpecResponder(v.state))
            continue;
        probe(v.tag.mod);
        probe(v.tag.high);
    }
    return first;
}

} // namespace hmtx
