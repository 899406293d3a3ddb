/**
 * @file
 * Golden model of MTX memory semantics (§3, §4): versioned memory as
 * per-word sorted version lists plus per-line access marks. No caches,
 * no coherence states, no timing — just the architecturally visible
 * contract the whole memory system must honour:
 *
 *  - a load with VID a observes the store with the largest writer
 *    VID <= a, or the committed base value (§4.1 visibility);
 *  - a store with VID y aborts iff any higher VID already accessed the
 *    line (§4.3 flow/output dependences, aggregated read marks);
 *  - a non-speculative store aborts iff the line carries uncommitted
 *    speculative state;
 *  - group commit is a watermark move (§4.4), abort flushes everything
 *    above the watermark (Figure 7), VID reset folds the committed
 *    image and restarts the window (§4.6).
 *
 * The differential fuzzer (check/differ.hh) runs random schedules
 * against CacheSystem and this model simultaneously; any disagreement
 * in values, abort outcomes, R/W sets, or the final memory image is a
 * bug in one of them.
 */

#ifndef HMTX_CHECK_GOLDEN_HH
#define HMTX_CHECK_GOLDEN_HH

#include <compare>
#include <cstdint>
#include <vector>

#include "core/tx_policy.hh"
#include "core/types.hh"

namespace hmtx::check
{

/**
 * Pure-semantics reference for the HMTX memory system.
 *
 * Prediction (const) and application (mutating) are split so a driver
 * can ask "what should happen" before touching the real system, then
 * fold in only the outcome that actually occurred — e.g. a capacity
 * abort (§5.4), which no timing-free model can predict, is applied as
 * abortAll() instead of the operation's success path.
 *
 * Granularity mirrors the hardware: values are tracked per 8-byte
 * word (accesses never straddle a word), dependence marks per cache
 * line (the tags of §4.1 are line tags).
 */
class GoldenModel
{
  public:
    /**
     * @param slaEnabled mirror of MachineConfig::slaEnabled: when
     *        false, wrong-path loads plant read marks like any other
     *        load (the false-misspeculation source §5.1 removes)
     * @param policy mirror of the cells' TxPolicyConfig: the golden
     *        model runs the same TxPolicy state machine the cells do,
     *        so fallback serialization (best-effort mode) and
     *        limited-set capacity aborts are predicted, not treated as
     *        environmental noise
     */
    explicit GoldenModel(bool slaEnabled = true,
                         const TxPolicyConfig& policy = {})
        : slaEnabled_(slaEnabled), policy_(policy)
    {}

    /** Highest committed VID. */
    Vid lc() const { return lc_; }

    /** The mirrored commit-mode policy (read-only). */
    const TxPolicy& policy() const { return policy_; }

    /**
     * Mirrors the policy consultation a cell performs at the top of
     * every correct-path speculative access (load or store with
     * VID != 0). Returns true when the access runs *serialized* — the
     * best-effort fallback lock is (or becomes) held by @p vid — in
     * which case the access has full non-speculative semantics: the
     * expected value is valueAt(.., kNonSpecVid), no marks or R/W-set
     * entries land, and a store folds the committed image. Mutating:
     * advances the fallback state machine exactly as each cell does.
     */
    bool beginSpecAccess(Vid vid)
    { return policy_.onSpecAccess(vid, lc_); }

    /** Seeds the committed base value of the word containing @p a. */
    void seed(Addr a, std::uint64_t v) { wordOf(a).base = v; }

    // --- prediction (const) -------------------------------------------

    /**
     * Value a load of @p size bytes at @p a with VID @p vid must
     * observe. VID 0 reads the committed image (visibility at the LC
     * VID, §5.3).
     */
    std::uint64_t valueAt(Addr a, unsigned size, Vid vid) const;

    /**
     * True when a store at @p a with VID @p vid must trigger a global
     * abort: some higher VID already accessed the line (speculative
     * store, §4.3), or the line carries uncommitted speculative state
     * (non-speculative store, VID 0).
     */
    bool storeAborts(Addr a, Vid vid) const;

    /**
     * True when a VID reset is legal: every speculative access
     * recorded since the last reset/abort has committed (§4.6).
     */
    bool vidResetLegal() const { return rw_.empty(); }

    /**
     * True when a limited-set cell must capacity-abort a correct-path
     * speculative access at @p a with VID @p vid: the line is new to
     * the VID's combined read/write set and the set already holds K
     * lines. Mirrors CacheSystem::limitedSetBlocks exactly — both key
     * off identically maintained per-VID line sets. Always false
     * outside limited-set mode.
     */
    bool limitedSetWouldAbort(Addr a, Vid vid) const;

    // --- application (mutating) ---------------------------------------

    /**
     * Applies a load's marking side effects. Wrong-path loads mark
     * only when SLAs are disabled (§5.1) and never enter the read set.
     * VID 0 (non-speculative) loads have no side effects.
     */
    void applyLoad(Addr a, Vid vid, bool wrongPath);

    /**
     * Applies a store of @p v (@p size bytes) at @p a with VID @p vid.
     * @pre !storeAborts(a, vid)
     */
    void applyStore(Addr a, std::uint64_t v, unsigned size, Vid vid);

    /**
     * Applies the marking of a successful SLA confirmation (§5.1): the
     * deferred read mark lands only if the load still hits the latest
     * version.
     */
    void applyConfirm(Addr a, Vid vid);

    /** Group commit of @p vid. @pre vid == lc() + 1 (§4.7). */
    void commit(Vid vid);

    /** Flushes everything above the LC watermark (§4.4, Figure 7). */
    void abortAll();

    /** VID reset (§4.6). @pre vidResetLegal() */
    void vidReset();

    // --- validation sets (Figure 9) -----------------------------------

    /** Sorted line addresses in @p vid's read set. */
    std::vector<Addr> readSet(Vid vid) const;
    /** Sorted line addresses in @p vid's write set. */
    std::vector<Addr> writeSet(Vid vid) const;

    /** Words ever touched, for final-image comparison: sorted, into
     *  @p out (reused scratch). */
    void touchedWords(std::vector<Addr>& out) const;

  private:
    /**
     * The state lives in four flat vectors, each sorted by its key, so
     * that copying a model (the model checker checkpoints one at every
     * DFS branch point) is a few array copies.
     */

    /** One 8-byte word's committed base value. */
    struct Word
    {
        Addr addr;
        std::uint64_t base;
    };

    /**
     * One surviving speculative or committed store version of a word,
     * keyed by (word, writer VID). Invariant: every version is newer
     * than the word's base image, so visibility is "largest writer <=
     * VID, else base".
     */
    struct Version
    {
        Addr word;
        Vid vid;
        std::uint64_t value;
    };

    /**
     * Per-line dependence marks, mirroring the aggregated tags of
     * §4.2/§4.3: `writer` is the modVID of the latest version (0 when
     * the latest version is non-speculative) and `mark` the highest
     * VID that accessed the latest version (its effective highVID,
     * distributed read marks included). mark >= writer always.
     */
    struct LineCtl
    {
        Addr line;
        Vid writer = kNonSpecVid;
        Vid mark = kNonSpecVid;
    };

    /** One line of a live VID's read (write = false) or write set,
     *  keyed by (vid, write, line). */
    struct RwEntry
    {
        Vid vid;
        bool write;
        Addr line;

        auto operator<=>(const RwEntry&) const = default;
    };

    Word& wordOf(Addr a);
    const Word* wordIf(Addr a) const;
    LineCtl& lineOf(Addr a);
    const LineCtl* lineIf(Addr a) const;

    /** Value of the word at @p word visible to @p vid. */
    std::uint64_t wordValueAt(Addr word, std::uint64_t base,
                              Vid vid) const;
    /** Drops every version of the word at @p word. */
    void dropVersions(Addr word);
    /** Adds @p line to @p vid's read or write set. */
    void rwInsert(Vid vid, bool write, Addr line);
    /** @p vid's read or write set, sorted. */
    std::vector<Addr> rwSet(Vid vid, bool write) const;

    bool slaEnabled_;
    TxPolicy policy_;
    Vid lc_ = kNonSpecVid;
    std::vector<Word> words_;
    std::vector<Version> vers_;
    std::vector<LineCtl> lines_;
    /** Live VIDs' read/write line sets; a VID's entries are erased on
     *  commit, all on abort. Every VID present is > lc_. */
    std::vector<RwEntry> rw_;
};

} // namespace hmtx::check

#endif // HMTX_CHECK_GOLDEN_HH
