/**
 * @file
 * The normative HMTX version rules (§4.1-§4.4 of the paper).
 *
 * These pure functions decide, for one cache line version with coherence
 * state and (modVID, highVID) tags, whether a request hits, what a
 * speculative store must do, and how the line transitions on commit
 * (Figure 6) and abort (Figure 7). They contain no simulator state so
 * they can be tested exhaustively; the cache model in src/sim drives
 * them. They are defined here, in the header, because lazy commit runs
 * them on every line a probe, eviction or allocation touches: the
 * simulator must be able to inline them (DESIGN.md §8).
 */

#ifndef HMTX_CORE_VERSION_RULES_HH
#define HMTX_CORE_VERSION_RULES_HH

#include <cassert>
#include <optional>
#include <span>

#include "core/spec_state.hh"
#include "core/types.hh"

namespace hmtx
{

/** The (modVID, highVID) tag pair carried by every cache line (§4.1). */
struct VersionTag
{
    /**
     * VID of the transaction whose speculative store created this
     * version; 0 for all non-speculative versions.
     */
    Vid mod = kNonSpecVid;

    /** Highest VID that has accessed this version of the line. */
    Vid high = kNonSpecVid;

    bool operator==(const VersionTag&) const = default;
};

/**
 * Hit predicate for a request with VID @p a against a version in state
 * @p st with tags @p t (§4.1):
 *
 *   S-M / S-E (m,h): hit iff a >= m
 *   S-O / S-S (m,h): hit iff m <= a < h
 *   non-speculative: hit (tag match is checked by the cache itself);
 *                    callers pass the cache's LC VID as @p a for
 *                    non-speculative requests (§5.3).
 *
 * @param st coherence state of the candidate version
 * @param t  version tags of the candidate
 * @param a  VID of the request (LC VID for non-speculative requests)
 * @return true if the request hits this version
 */
constexpr bool
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

/** What a speculative store must do once its hitting version is known. */
enum class StoreAction : std::uint8_t
{
    /** Write into the hitting version in place (store VID == modVID). */
    InPlace,
    /**
     * Retain the hitting version unmodified as S-O(m, y) and create a
     * new S-M(y, y) version holding the stored data (§4.2).
     */
    NewVersion,
    /**
     * Dependence violation: a later access already touched the line
     * (store VID < highVID, or the hit landed on a superseded S-O/S-S
     * version) (§4.3).
     */
    Abort,
};

/**
 * Classifies a speculative store with VID @p y that hit a version in
 * state @p st with tags @p t (§4.2, §4.3, Figure 4).
 *
 * Non-speculative versions always yield NewVersion (the first
 * speculative write to a line keeps the pristine copy in S-O and builds
 * the S-M version next to it).
 */
constexpr StoreAction
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

/** Result of applying a commit or abort rule to one line version. */
struct LineTransition
{
    State state = State::Invalid;
    VersionTag tag{};
    bool operator==(const LineTransition&) const = default;
};

namespace detail
{

/** Retire a fully committed line to its non-speculative state. */
constexpr LineTransition
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

} // namespace detail

/**
 * Commit transition for one line version (Figure 6, §4.4).
 *
 * Commits are consecutive, so a single committed-VID watermark @p c
 * fully determines the outcome:
 *   - modVID <= c: the modification is committed, modVID := 0;
 *   - highVID <= c: every accessor completed, the line retires to a
 *     non-speculative state (S-M -> M, S-E -> E, S-O / S-S -> I).
 *
 * @param st    current state (must be speculative)
 * @param t     current tags
 * @param c     highest committed VID (the cache's LC VID)
 * @param dirty whether the data differs from memory
 */
constexpr LineTransition
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
        return detail::retire(st, dirty);
    }
    if (t.high <= c)
        return detail::retire(st, dirty);
    if (t.mod != kNonSpecVid && t.mod <= c) {
        // The creating transaction committed but later accessors are
        // still outstanding: only the modVID clears (Figure 6).
        return {st, {kNonSpecVid, t.high}};
    }
    return {st, t};
}

/**
 * Abort transition for one line version (Figure 7, §4.4 and §5.3).
 *
 * All uncommitted speculative state is flushed:
 *   - modVID > c (uncommitted speculative modification): Invalid;
 *   - otherwise the data is committed: highVID clears and the line
 *     returns to a non-speculative state preserving dirtiness. S-O
 *     survivors may have peer S-S copies, so they conservatively land
 *     in Owned (dirty) or Shared (clean); S-S copies land in Shared.
 *
 * @param st    current state (must be speculative)
 * @param t     current tags
 * @param c     highest committed VID at the time of the abort
 * @param dirty whether the data differs from memory
 */
constexpr LineTransition
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
        return detail::retire(st, dirty);
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

/**
 * VID-reset transition (§4.6). After the software has drained all
 * outstanding transactions, all tags reset to (0, 0); latest versions
 * (S-M / S-E) thereby become committed non-speculative lines and
 * superseded versions (S-O / S-S) can never hit again and are dropped.
 */
constexpr LineTransition
resetLine(State st, VersionTag t, bool dirty)
{
    if (!isSpec(st))
        return {st, t};
    // A VID reset is only legal once every outstanding transaction has
    // committed (§4.6), so latest versions hold committed data and
    // superseded versions can never hit again.
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

/** One live version of a line as the responder rule sees it. */
struct LineVersion
{
    State state = State::Invalid;
    VersionTag tag{};
};

namespace detail
{

/** True when the first two responders of @p live hitting @p a carry
 *  distinct modVIDs. */
inline bool
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

} // namespace detail

/**
 * Responder rule for the live versions of one address (the check
 * CacheSystem::checkInvariants() enforces): for every request VID
 * a in [0, @p maxVid], the first two responder-class versions (S-E,
 * S-O, S-M) of @p live, in order, that hit a must carry the same
 * modVID.
 *
 * A responder hits [mod, maxVid] (S-M, S-E) or [mod, high) (S-O), so
 * the ordered list of responders hitting a only changes at a = 0 and
 * at some responder's mod or high. The rule is evaluated at those
 * points alone, which finds exactly the violations a scan of every
 * VID finds.
 *
 * @return the smallest violating VID, or nullopt when the rule holds
 */
inline std::optional<Vid>
firstResponderConflict(std::span<const LineVersion> live, Vid maxVid)
{
    // The smallest violating VID starts a run on which the responders
    // hitting it are constant, so it is one of the probed endpoints.
    std::optional<Vid> first;
    auto probe = [&](Vid a) {
        if (a <= maxVid && (!first || a < *first) &&
            detail::respondersDisagreeAt(live, a))
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

#endif // HMTX_CORE_VERSION_RULES_HH
