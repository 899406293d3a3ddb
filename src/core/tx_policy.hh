/**
 * @file
 * Pluggable transaction-mode policy (TxMode axis of the config matrix).
 *
 * The protocol engine itself is mode-agnostic: it versions lines, walks
 * them on commit/abort, and reports conflicts. What differs between the
 * paper's lazy/eager HMTX cells and the two capacity-bounded variants
 * (best-effort HTM with a serialized software fallback, and a limited
 * first-K-lines speculative set) is *policy*: when a commit walk is
 * charged eagerly, when a transaction gives up on speculation, and when
 * a speculative access must capacity-abort. This class owns those
 * decisions so the cache model contains no mode conditionals of its own,
 * and so the golden model can run the *same* policy object in lockstep
 * and predict fallback serialization and limited-set aborts exactly.
 *
 * Best-effort fallback state machine (after bblum's htm_mutex and the
 * HAFT tx_ibm MAX_RETRIES/THRESHOLD exemplars):
 *
 *     speculating --abort x N--> armed --first access of VID lc+1-->
 *     serialized (global lock held, accesses run non-speculatively)
 *     --commit of the fallback VID--> speculating
 *
 * Aborts while the lock is held never target the holder (its accesses
 * are non-speculative, so a global flush cannot touch its state); the
 * lock is released only by the holder's commit. A cumulative abort
 * threshold (when nonzero) drops the per-transaction retry budget to a
 * single attempt once total aborts cross it — the HAFT-style "stop
 * believing in HTM" early fallback.
 *
 * This layer is pure logic with no simulator dependencies, like the
 * rest of src/core, so src/check can instantiate an identical policy
 * for the golden model.
 */

#ifndef HMTX_CORE_TX_POLICY_HH
#define HMTX_CORE_TX_POLICY_HH

#include <cstddef>
#include <cstdint>

#include "core/stat_table.hh"
#include "core/types.hh"

namespace hmtx
{

/** Transaction-mode axis of the config matrix. */
enum class TxMode
{
    /** Full HMTX, O(1) lazy commit via the LC VID watermark (§5.3). */
    LazyHmtx,
    /** Full HMTX, naive O(lines) eager commit/abort walks (§4.4). */
    EagerHmtx,
    /**
     * Best-effort HTM: after N conflict/capacity aborts the next
     * transaction (VID == LC+1) runs serialized under a global lock,
     * non-speculatively, and cannot abort.
     */
    BestEffort,
    /**
     * Limited speculative sets: only the first K distinct lines per
     * VID may enter the read/write sets; the (K+1)-th capacity-aborts.
     */
    LimitedSet,
};

/** Stable lowercase name for config echo lines and JSON records. */
const char* txModeName(TxMode m);

/** The mode knobs a TxPolicy is built from (subset of MachineConfig). */
struct TxPolicyConfig
{
    TxMode mode = TxMode::LazyHmtx;
    /** BestEffort: speculative attempts before arming the fallback. */
    unsigned btxMaxRetries = 2;
    /** BestEffort: cumulative aborts after which the retry budget
     *  collapses to one attempt (0 disables the threshold). */
    unsigned btxAbortThreshold = 0;
    /** LimitedSet: max distinct speculative lines per VID. */
    unsigned limitedSetK = 4;
};

/**
 * Validates the mode knobs in isolation; throws std::invalid_argument
 * with a descriptive message. MachineConfig::validate() layers the
 * engine/overflow compatibility rules on top.
 */
void validateTxPolicyConfig(const TxPolicyConfig& cfg);

/** Mode-policy counters: the sim.txmode.* rows kFields describes. */
struct TxModeStats
{
    std::uint64_t fallbackEntries = 0;
    std::uint64_t fallbackAccesses = 0;
    std::uint64_t fallbackCommits = 0;
    std::uint64_t fallbackWrapRemaps = 0;
    std::uint64_t fallbackCycles = 0;
    std::uint64_t limitedSetAborts = 0;
    std::uint64_t retryAborts = 0;
    std::uint64_t earlyFallbacks = 0;

    /** Field table, in report order. */
    static constexpr StatField<TxModeStats> kFields[] = {
        {"sim.txmode.retryAborts", &TxModeStats::retryAborts,
         "aborts charged against the best-effort retry budget"},
        {"sim.txmode.fallbackEntries", &TxModeStats::fallbackEntries,
         "times the serialized fallback lock engaged"},
        {"sim.txmode.fallbackAccesses", &TxModeStats::fallbackAccesses,
         "accesses executed under the fallback lock"},
        {"sim.txmode.fallbackCommits", &TxModeStats::fallbackCommits,
         "commits that released the fallback lock"},
        {"sim.txmode.fallbackCycles", &TxModeStats::fallbackCycles,
         "memory-system cycles of serialized execution"},
        {"sim.txmode.fallbackWrapRemaps", &TxModeStats::fallbackWrapRemaps,
         "VID-window resets remapping a held fallback VID to 1"},
        {"sim.txmode.earlyFallbacks", &TxModeStats::earlyFallbacks,
         "fallbacks taken early via the abort threshold"},
        {"sim.txmode.limitedSetAborts", &TxModeStats::limitedSetAborts,
         "capacity aborts from the K-line set limit"},
    };

    bool operator==(const TxModeStats&) const = default;
};

static_assert(std::size(TxModeStats::kFields) * sizeof(std::uint64_t) ==
                  sizeof(TxModeStats),
              "every TxModeStats counter needs a kFields entry");

/**
 * The per-machine policy instance. CacheSystem consults it on every
 * speculative access and notifies it of commits, global aborts, and
 * VID resets; the golden model drives an identical instance with the
 * same event stream, so both sides agree on every serialization and
 * capacity decision without the checker peeking at simulator state.
 */
class TxPolicy
{
  public:
    explicit TxPolicy(const TxPolicyConfig& cfg = {}) : cfg_(cfg) {}

    TxMode mode() const { return cfg_.mode; }

    const TxPolicyConfig& config() const { return cfg_; }
    const TxModeStats& stats() const { return stats_; }

    /** True when commit/abort charge the naive O(lines) walk (§4.4).
     *  Only EagerHmtx does; the capacity-bounded modes keep the lazy
     *  watermark commit — they differ in *set* policy, not walks. */
    bool eagerWalk() const { return cfg_.mode == TxMode::EagerHmtx; }

    /** True when speculative sets are bounded to the first K lines. */
    bool limitsSpecSets() const
    {
        return cfg_.mode == TxMode::LimitedSet;
    }

    /** Given @p combined distinct lines already in a VID's sets, would
     *  touching one more line exceed the K bound? */
    bool limitedSetExceeded(std::size_t combined) const
    {
        return combined >= cfg_.limitedSetK;
    }

    /** True when accesses of @p vid run serialized under the lock. */
    bool serializes(Vid vid) const
    {
        return held_ && vid == fallbackVid_;
    }

    bool fallbackHeld() const { return held_; }
    bool fallbackArmed() const { return armed_; }
    Vid fallbackVid() const { return fallbackVid_; }

    /**
     * Called at every correct-path speculative access before it
     * executes. Returns true when the access must run serialized
     * (non-speculatively, under the global fallback lock). The lock is
     * taken by the first access of VID @p lcVid + 1 after the retry
     * budget is exhausted — the oldest uncommitted transaction, so the
     * holder's commit is never blocked by an earlier VID.
     */
    bool
    onSpecAccess(Vid vid, Vid lcVid)
    {
        if (cfg_.mode != TxMode::BestEffort)
            return false;
        if (held_) {
            if (vid != fallbackVid_)
                return false;
            ++stats_.fallbackAccesses;
            return true;
        }
        if (armed_ && vid == lcVid + 1) {
            held_ = true;
            fallbackVid_ = vid;
            armed_ = false;
            aborts_ = 0;
            ++stats_.fallbackEntries;
            ++stats_.fallbackAccesses;
            return true;
        }
        return false;
    }

    /** Called once per global abort (every abortGen bump). */
    void
    onAbort()
    {
        if (cfg_.mode != TxMode::BestEffort)
            return;
        ++stats_.retryAborts;
        ++totalAborts_;
        ++aborts_;
        // The lock holder never aborts, but a global flush can still
        // happen while the lock is held (a *non-holder* speculative
        // VID conflicting); it charges the budget like any other.
        const bool thresholdHit = cfg_.btxAbortThreshold != 0 &&
            totalAborts_ >= cfg_.btxAbortThreshold;
        const unsigned budget =
            thresholdHit ? 1u : cfg_.btxMaxRetries;
        if (!armed_ && aborts_ >= budget) {
            armed_ = true;
            if (thresholdHit && aborts_ < cfg_.btxMaxRetries)
                ++stats_.earlyFallbacks;
        }
    }

    /** Called after the group commit of @p vid succeeds. */
    void
    onCommit(Vid vid)
    {
        if (cfg_.mode != TxMode::BestEffort)
            return;
        // Forward progress: any commit resets the consecutive count.
        aborts_ = 0;
        if (held_ && vid == fallbackVid_) {
            held_ = false;
            fallbackVid_ = kNonSpecVid;
            ++stats_.fallbackCommits;
        }
    }

    /** Called after a VID-window reset (§4.6). A reset is only legal
     *  with no uncommitted speculative state; the fallback holder
     *  qualifies (its accesses are non-speculative), so a held lock
     *  survives the wraparound with its VID renumbered to 1. */
    void
    onVidReset()
    {
        if (held_) {
            fallbackVid_ = 1;
            ++stats_.fallbackWrapRemaps;
        }
    }

    /** Accumulates serialized-access latency into the stats. */
    void noteFallbackCycles(std::uint64_t c)
    {
        stats_.fallbackCycles += c;
    }

    /** Accounts one limited-set capacity abort (the caller raises the
     *  actual abort through the normal protocol path). */
    void noteLimitedSetAbort() { ++stats_.limitedSetAborts; }

  private:
    TxPolicyConfig cfg_;
    TxModeStats stats_;
    /** Consecutive aborts since the last commit (BestEffort). */
    unsigned aborts_ = 0;
    /** Cumulative aborts, feeding the early-fallback threshold. */
    std::uint64_t totalAborts_ = 0;
    /** Retry budget exhausted; next LC+1 access engages the lock. */
    bool armed_ = false;
    /** Global fallback lock held. */
    bool held_ = false;
    /** VID running serialized while the lock is held. */
    Vid fallbackVid_ = kNonSpecVid;
};

} // namespace hmtx

#endif // HMTX_CORE_TX_POLICY_HH
