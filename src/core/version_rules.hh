/**
 * @file
 * The normative HMTX version rules (§4.1-§4.4 of the paper).
 *
 * These pure functions decide, for one cache line version with coherence
 * state and (modVID, highVID) tags, whether a request hits, what a
 * speculative store must do, and how the line transitions on commit
 * (Figure 6) and abort (Figure 7). They contain no simulator state so
 * they can be tested exhaustively; the cache model in src/sim drives
 * them.
 */

#ifndef HMTX_CORE_VERSION_RULES_HH
#define HMTX_CORE_VERSION_RULES_HH

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
bool versionHits(State st, VersionTag t, Vid a);

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
StoreAction classifyStore(State st, VersionTag t, Vid y);

/** Result of applying a commit or abort rule to one line version. */
struct LineTransition
{
    State state = State::Invalid;
    VersionTag tag{};
    bool operator==(const LineTransition&) const = default;
};

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
LineTransition commitLine(State st, VersionTag t, Vid c, bool dirty);

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
LineTransition abortLine(State st, VersionTag t, Vid c, bool dirty);

/**
 * VID-reset transition (§4.6). After the software has drained all
 * outstanding transactions, all tags reset to (0, 0); latest versions
 * (S-M / S-E) thereby become committed non-speculative lines and
 * superseded versions (S-O / S-S) can never hit again and are dropped.
 */
LineTransition resetLine(State st, VersionTag t, bool dirty);

/** One live version of a line as the responder rule sees it. */
struct LineVersion
{
    State state = State::Invalid;
    VersionTag tag{};
};

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
std::optional<Vid> firstResponderConflict(
    std::span<const LineVersion> live, Vid maxVid);

} // namespace hmtx

#endif // HMTX_CORE_VERSION_RULES_HH
