/**
 * @file
 * The HMTX protocol engine: the complete per-version decision surface
 * of §4.1-§4.4, §4.6 and §5.3/§5.4 as side-effect-free functions.
 *
 * version_rules.hh holds the normative primitive transitions straight
 * from the paper's figures (hit rule, Figure 4 store classification,
 * Figure 6/7 commit/abort, §4.6 reset). This layer composes them with
 * the implementation flags a real line carries — sharer copies,
 * latest-version S-S semantics, wrong-path marks — so that every
 * protocol decision the cache system makes is expressible on a plain
 * value (`VersionView`) with no machine attached. The simulator's
 * CacheSystem is thereby reduced to orchestration: it converts lines
 * to views, asks this engine, and applies the returned image.
 *
 * Header-only: reconciliation and victim selection run per line on
 * every probe, eviction and allocation, so the bodies must be visible
 * to the simulator's compiler to inline (DESIGN.md §8).
 */

#ifndef HMTX_CORE_PROTOCOL_HH
#define HMTX_CORE_PROTOCOL_HH

#include "core/spec_state.hh"
#include "core/types.hh"
#include "core/version_rules.hh"

namespace hmtx
{

/**
 * Architectural payload of one cache line version as the protocol
 * engine sees it: coherence state, version tags, and the sharing /
 * provenance flags that refine the paper's base transitions. No
 * simulator bookkeeping, no data bytes — decisions never depend on
 * either.
 */
struct VersionView
{
    State state = State::Invalid;
    VersionTag tag{};
    /** True when the data differs from main memory. */
    bool dirty = false;
    /** True when peer caches may hold S-S copies of this version. */
    bool mayHaveSharers = false;
    /** True for S-S copies of the *latest* version (distributed read
     *  marks; see DESIGN.md §2). */
    bool latestCopy = false;
    /** True when highVID was last raised by a wrong-path load. */
    bool highFromWrongPath = false;

    bool operator==(const VersionView&) const = default;
};

namespace detail
{

/**
 * A retiring owner may have handed out S-S copies; it must land in a
 * shareable state or a later silent write to an M/E line would leave
 * those copies stale.
 */
constexpr LineTransition
shareIfSharers(LineTransition t, bool mayHaveSharers)
{
    if (mayHaveSharers) {
        if (t.state == State::Modified)
            t.state = State::Owned;
        else if (t.state == State::Exclusive)
            t.state = State::Shared;
    }
    return t;
}

} // namespace detail

/**
 * Lazy-commit reconciliation (§5.3): folds every commit at or below
 * the LC VID watermark @p lc into the version. Latest-version S-S
 * copies only shed committed marks (they must never turn into a
 * second apparent owner); everything else follows Figure 6, with
 * retiring owners that handed out S-S copies landing in a shareable
 * state (M->O, E->S). Idempotent for a fixed @p lc.
 */
constexpr VersionView
reconcileVersion(VersionView v, Vid lc)
{
    if (v.state == State::Invalid || !isSpec(v.state))
        return v;
    if (v.state == State::SpecShared && v.latestCopy) {
        // Latest-version copy: highVID is a local read mark, not a
        // coverage bound. The copy must never turn into a plain
        // non-speculative line (that would create a second apparent
        // owner of the version); it lives until superseded,
        // invalidated by a write, evicted, aborted or VID-reset.
        if (v.tag.mod != kNonSpecVid && v.tag.mod <= lc)
            v.tag.mod = kNonSpecVid;
        if (v.tag.high <= lc)
            v.highFromWrongPath = false;
        return v;
    }
    LineTransition t = commitLine(v.state, v.tag, lc, v.dirty);
    if (t.state != v.state || !(t.tag == v.tag)) {
        t = detail::shareIfSharers(t, v.mayHaveSharers);
        v.state = t.state;
        v.tag = t.tag;
        if (!isSpec(v.state)) {
            v.mayHaveSharers = false;
            v.highFromWrongPath = false;
            v.latestCopy = false;
            if (v.state == State::Invalid)
                v.dirty = false;
        }
    }
    return v;
}

/**
 * Global-abort transition for one version (§4.4, Figure 7): commits
 * up to @p lc are folded first, then all uncommitted speculative
 * state is flushed. Latest-version S-S copies are dropped (they are
 * refetchable and keeping them could orphan a version's ownership).
 */
constexpr VersionView
abortVersion(VersionView v, Vid lc)
{
    if (!isSpec(v.state))
        return v;
    if (v.state == State::SpecShared && v.latestCopy) {
        // Copies are refetchable; dropping them keeps every version
        // with exactly one apparent owner.
        v.state = State::Invalid;
        v.tag = {};
    } else {
        LineTransition t = commitLine(v.state, v.tag, lc, v.dirty);
        t = abortLine(t.state, t.tag, lc, v.dirty);
        t = detail::shareIfSharers(t, v.mayHaveSharers);
        v.state = t.state;
        v.tag = t.tag;
    }
    v.latestCopy = false;
    v.mayHaveSharers = false;
    v.highFromWrongPath = false;
    return v;
}

/**
 * VID-reset transition (§4.6). Only legal once every outstanding
 * transaction has committed; the caller must reconcile first. Latest
 * versions retire to committed non-speculative states, superseded
 * versions and copies die.
 */
constexpr VersionView
resetVersion(VersionView v)
{
    if (!isSpec(v.state))
        return v;
    if (v.state == State::SpecShared && v.latestCopy) {
        v.state = State::Invalid;
        v.tag = {};
    } else {
        LineTransition t = resetLine(v.state, v.tag, v.dirty);
        t = detail::shareIfSharers(t, v.mayHaveSharers);
        v.state = t.state;
        v.tag = t.tag;
    }
    v.latestCopy = false;
    v.mayHaveSharers = false;
    return v;
}

/**
 * Hit predicate for a request with VID @p a (§4.1), extended with the
 * latest-copy S-S semantics: a copy of the latest version serves any
 * VID >= its modVID locally. Non-speculative versions serve every
 * request (tag match is the cache's job; callers pass the LC VID for
 * non-speculative requests).
 */
constexpr bool
versionServes(const VersionView& v, Vid a)
{
    if (v.state == State::Invalid)
        return false;
    if (v.state == State::SpecShared && v.latestCopy)
        return a >= v.tag.mod; // serves all later VIDs (§4.1)
    return versionHits(v.state, v.tag, a);
}

/**
 * Eviction preference class (§5.4); lower evicts first.
 *
 *  0 invalid, 1 superseded S-S copies (nearly dead), 2 plain LRU
 *  residents (non-speculative lines and latest-version copies),
 *  3 pristine S-O versions (may overflow to memory), 4 responder-class
 *  speculative state (loss aborts).
 */
constexpr int
victimClass(const VersionView& v)
{
    switch (v.state) {
      case State::Invalid:
        return 0;
      case State::SpecShared:
        // Superseded copies are nearly dead; latest-version copies
        // are live working set (shared read-only data) and compete
        // via LRU like any other resident line.
        return v.latestCopy ? 2 : 1;
      case State::Shared:
      case State::Exclusive:
      case State::Modified:
      case State::Owned:
        // Plain LRU among non-speculative lines: preferring clean
        // victims would evict the current (still-clean) working set
        // in favour of stale dirty data.
        return 2;
      case State::SpecOwned:
        // §5.4: prefer overflowing non-speculative S-O versions.
        return v.tag.mod == kNonSpecVid ? 3 : 4;
      case State::SpecExclusive:
      case State::SpecModified:
        return 4;
    }
    return 5;
}

/**
 * Store classification against the *effective* tag of the hitting
 * version — the owner's tag with the distributed read marks from
 * latest-version S-S copies aggregated into highVID (§4.2/§4.3). Any
 * store below the aggregated highVID violates a flow dependence and
 * aborts, even when the owner itself never logged that reader.
 */
constexpr StoreAction
classifyStoreWithMarks(State st, VersionTag eff, Vid y)
{
    if (y < eff.high) {
        // A later VID already read this version — possibly recorded
        // on a peer copy rather than the owner (§4.3).
        return StoreAction::Abort;
    }
    return classifyStore(st, eff, y);
}

/** What a speculative read must do to mark the version it hit. */
enum class ReadMarkAction : std::uint8_t
{
    /** Version already logged an equal-or-higher VID: nothing to do. */
    None,
    /** Speculative responder: raise highVID to the request, SLA due. */
    RaiseHigh,
    /**
     * Non-speculative exclusive-class line (M/E): transition in place
     * to S-M/S-E per dirtiness, SLA due.
     */
    Upgrade,
    /**
     * Non-speculative shared-class line (S/O): a fabric transaction
     * must first gain writable access and invalidate peer copies, then
     * as Upgrade.
     */
    UpgradeWithBus,
};

/**
 * Classifies the read marking for VID @p vid on a version it hit
 * (§4.2, §5.1). S-S copies are never marked through this path: the
 * owner (or the copy's own local mark, for latest copies) carries the
 * log.
 */
constexpr ReadMarkAction
classifyReadMark(State st, VersionTag t, Vid vid)
{
    if (isSpecResponder(st))
        return vid > t.high ? ReadMarkAction::RaiseHigh
                            : ReadMarkAction::None;
    if (st == State::SpecShared)
        return ReadMarkAction::None; // owner already logged >= this
    // First speculative access to a non-speculative line: gain
    // writable access if shared (§4.2), then go speculative.
    if (st == State::Shared || st == State::Owned)
        return ReadMarkAction::UpgradeWithBus;
    return ReadMarkAction::Upgrade;
}

/** Speculative state a non-speculative line upgrades into (§4.2). */
constexpr State
specUpgradeState(bool dirty)
{
    return dirty ? State::SpecModified : State::SpecExclusive;
}

} // namespace hmtx

#endif // HMTX_CORE_PROTOCOL_HH
