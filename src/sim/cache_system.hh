/**
 * @file
 * The HMTX memory system: per-core L1s, a shared L2, a pluggable
 * coherence interconnect, and main memory, running the MOESI protocol
 * extended with the paper's speculative states and version rules (§4).
 *
 * CacheSystem is the *orchestration* layer of the three-layer design
 * (DESIGN.md §8): protocol decisions come from the pure engine in
 * core/protocol.hh, fabric timing from the Interconnect behind
 * sim/interconnect.hh, and this class wires caches, indexes, and data
 * movement together. It is genuinely numCores-parametric; nothing here
 * knows which fabric is configured.
 *
 * The implementation is split across four translation units:
 *  - cache_system.cc         construction, index maintenance, checks
 *  - cache_system_lookup.cc  reconcile/hit/find, allocation, data
 *  - cache_system_access.cc  load/store/SLA and protocol actions
 *  - cache_system_bulk.cc    commit, abort, VID reset, flush
 */

#ifndef HMTX_SIM_CACHE_SYSTEM_HH
#define HMTX_SIM_CACHE_SYSTEM_HH

#include <bit>
#include <cstdint>
#include <memory>
#include <memory_resource>
#include <utility>
#include <vector>

#include "core/comparator.hh"
#include "core/protocol.hh"
#include "core/sla.hh"
#include "core/types.hh"
#include "core/version_rules.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/flat_index.hh"
#include "sim/interconnect.hh"
#include "sim/memory.hh"
#include "sim/overflow_table.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace hmtx::sim
{

/** Outcome of one memory access through the hierarchy. */
struct AccessResult
{
    /** Loaded value (unspecified for stores and aborted accesses). */
    std::uint64_t value = 0;
    /** Total latency in cycles, including bus and memory time. */
    Cycles latency = 0;
    /**
     * For speculative loads: true when the line had not yet logged
     * this VID, so an SLA must be sent once the load retires (§5.1).
     */
    bool needSla = false;
    /** True when the access triggered a (global) abort. */
    bool aborted = false;
    /** True when the request was satisfied by the local L1. */
    bool l1Hit = false;
};

/** One live VID's read/write line sets (Figure 9 accounting), as
 *  CacheSystem keeps them. */
struct RwSets
{
    Vid vid = kNonSpecVid;
    FlatAddrSet reads;
    FlatAddrSet writes;
    /** |reads ∪ writes|, kept by addRead()/addWrite()/clear() and
     *  recounted by CacheSystem::verifyIndexes(). */
    std::size_t combined = 0;

    void
    addRead(Addr la)
    {
        if (reads.insert(la) && !writes.contains(la))
            ++combined;
    }

    void
    addWrite(Addr la)
    {
        if (writes.insert(la) && !reads.contains(la))
            ++combined;
    }

    void
    clear()
    {
        reads.clear();
        writes.clear();
        combined = 0;
    }

    /** Lines in reads ∪ writes (the limited-set K bound and the
     *  combined-set statistics count these); O(1). */
    std::size_t combinedLines() const { return combined; }
};

/**
 * Functional-with-latency model of the whole coherent memory system.
 *
 * Accesses complete atomically at issue time (state transitions happen
 * immediately and deterministically) and report the latency the
 * requester must stall for; fabric occupancy is tracked so concurrent
 * traffic serializes. This is the component the paper contributes:
 * everything in §4 and §5 is implemented here and in src/core.
 *
 * Abort model: any detected violation aborts *all* uncommitted
 * transactional state (§4.4: "on an abort for any VID, all uncommitted
 * transactional memory in the cache system is flushed"). An abort
 * generation counter lets thread contexts discover the abort at their
 * next operation and unwind.
 */
class CacheSystem
{
  public:
    CacheSystem(EventQueue& eq, const MachineConfig& cfg);

    /** The interconnect and stats members hold references into this
     *  object; moving would dangle them. */
    CacheSystem(const CacheSystem&) = delete;
    CacheSystem& operator=(const CacheSystem&) = delete;

    /**
     * A checkpoint of everything a run changes in a CacheSystem: the
     * caches (each in-use set's slots, payloads and tag summary, and
     * both registries), the read/write sets and their slot index, the
     * wrong-path shadow marks, the overflow table, main memory, every
     * counter and generation (SysStats, IndexStats, lcVid, abortGen,
     * the LRU clock, the rw-mark generation, the comparator's), the
     * TxPolicy state, the fabric's occupancy and DeliveryChooser, and
     * the EventQueue's clock. The trace is a log, not state: it is not
     * recorded.
     *
     * A reusable value: snapshot() refills it in place, keeping its
     * containers' capacity, so checkpointing repeatedly at a similar
     * footprint allocates little. Only the cache sets in use are
     * stored. A snapshot restores only into the system that took it.
     */
    class Snapshot
    {
      public:
        /** Allocates from @p mr: a checkpoint can give all its
         *  snapshots one arena. */
        explicit Snapshot(std::pmr::memory_resource* mr =
                              std::pmr::get_default_resource())
            : caches(mr), rw(mr), rwLines(mr), shadow(mr), mem(mr),
              nextFree(mr)
        {}

      private:
        friend class CacheSystem;
        /** One live VID's rw sets: its lines are the next reads +
         *  writes entries of rwLines, reads first. */
        struct RwImage
        {
            Vid vid;
            std::uint32_t reads;
            std::uint32_t writes;
        };

        CacheImage caches;
        /** The live VIDs' sets, in rwSets_ slot order. */
        std::pmr::vector<RwImage> rw;
        std::pmr::vector<Addr> rwLines;
        Vid rwCachedVid = 0;
        std::size_t rwCachedSlot = 0;
        std::uint32_t rwGen = 1;
        std::pmr::vector<std::pair<Addr, Vid>> shadow;
        std::pmr::vector<std::pair<Addr, LineData>> mem;
        /** Copied only once the table has been used (pristine()). */
        OverflowTable overflow;
        SysStats stats;
        IndexStats idxStats;
        Tick useClock = 0;
        Vid lcVid = 0;
        std::uint64_t abortGen = 0;
        VidComparator cmp;
        TxPolicy policy;
        std::pmr::vector<Tick> nextFree;
        DeliveryChooser* chooser = nullptr;
        Tick tick = 0;
    };

    /** Records the system's whole state into @p s. */
    void snapshot(Snapshot& s) const;

    /**
     * Returns the system to the state @p s recorded: every later
     * access, bulk operation, statistic and memory read is then
     * exactly what it was after snapshot(). The cache set buffers are
     * refilled in place (they never move once in use), so the
     * registries' slot pointers stay valid. The EventQueue must be
     * idle (EventQueue::rewind()). Must not be called while an access
     * or bulk operation is in flight.
     */
    void restore(const Snapshot& s);

    /**
     * Puts the system into exactly the state CacheSystem(eq, @p cfg)
     * constructs: the config, the VID comparator, the TxPolicy and the
     * construction snapshot are replaced, then that snapshot is
     * restored, so a run on a reset system is indistinguishable from a
     * run on a freshly built one (the DeliveryChooser is uninstalled,
     * the queue's clock back at its construction tick). Also clears
     * the trace. Containers keep their capacity. Throws
     * std::invalid_argument, leaving the system untouched, if @p cfg
     * fails MachineConfig::validate() or !sameStructure(@p cfg).
     */
    void reset(const MachineConfig& cfg);

    /**
     * True when @p cfg builds the caches and fabric config() built
     * (core count, cache sizes and associativities, fabric, directory
     * banks), so reset(@p cfg) can reuse them.
     */
    bool sameStructure(const MachineConfig& cfg) const;

    /** reset(config()): back to the just-constructed state. */
    void reset() { reset(cfg_); }

    /**
     * Performs a load.
     *
     * @param core      requesting core
     * @param a         byte address (must not cross a line boundary)
     * @param size      1, 2, 4 or 8 bytes
     * @param vid       transaction VID; 0 for non-speculative
     * @param wrongPath true for squashed wrong-path loads injected by
     *                  the core model on a branch misprediction (§5.1)
     */
    AccessResult load(CoreId core, Addr a, unsigned size, Vid vid,
                      bool wrongPath = false);

    /** Performs a store. VID 0 is a non-speculative store. */
    AccessResult store(CoreId core, Addr a, std::uint64_t value,
                       unsigned size, Vid vid);

    /**
     * Processes a speculative load acknowledgment (§5.1): re-verifies
     * the value the load observed and, if unchanged, applies the
     * deferred VID marking. A mismatch triggers an abort.
     *
     * @return false if the verification failed (abort was triggered)
     */
    bool slaConfirm(CoreId core, const SlaEntry& e);

    /**
     * Group-commits transaction @p vid across all caches (§4.4).
     * Commits must be consecutive (§4.7); the next legal VID is
     * lcVid() + 1.
     * @return cycles the commit occupied the memory system
     */
    Cycles commit(Vid vid);

    /** Flushes all uncommitted transactional state (§4.4, Figure 7). */
    Cycles abortAll();

    /**
     * VID Reset (§4.6). Only legal once every outstanding transaction
     * has committed; the latest committed VID returns to 0.
     */
    Cycles vidReset();

    /** Highest committed VID (the LC VID register, §5.3). */
    Vid lcVid() const { return lcVid_; }

    /** Abort generation; bumps on every abort. */
    std::uint64_t abortGen() const { return abortGen_; }

    /**
     * Writes every reconciled dirty committed line back to memory and
     * marks it clean. Used at region boundaries so tests can compare
     * memory images.
     */
    void flushDirtyToMemory();

    /** Direct functional access helpers for test/workload setup. */
    MainMemory& memory() { return mem_; }

    const SysStats& stats() const { return stats_; }
    SysStats& stats() { return stats_; }

    const VidComparator& comparator() const { return cmp_; }

    const MachineConfig& config() const { return cfg_; }

    /**
     * The transaction-mode policy (core/tx_policy.hh): owns the
     * commit-walk, fallback-serialization, and limited-set decisions.
     * The runtime consults serializes() to exempt the fallback lock
     * holder from abort unwinding; reports read stats() as
     * sim.txmode.* rows.
     */
    const TxPolicy& txPolicy() const { return policy_; }

    /** The configured coherence fabric (exposed for tests/reports). */
    const Interconnect& interconnect() const { return *net_; }
    /** Mutable fabric access, so the model checker (check/explorer.hh)
     *  can install a DeliveryChooser at the reordering seam. */
    Interconnect& interconnect() { return *net_; }

    /** L1 of @p core (exposed for tests). */
    Cache& l1(CoreId core) { return caches_[core]; }
    /** The shared L2 (exposed for tests). */
    Cache& l2() { return caches_.back(); }
    /** The spec-line overflow table (unbounded-sets extension). */
    const OverflowTable& overflowTable() const { return overflow_; }

    /** Protocol-action trace (on per MachineConfig::traceEnabled). */
    Trace& trace() { return trace_; }

    /**
     * Protocol self-check: verifies that for every cached address and
     * every VID in [0, maxVid], at most one responder-class version
     * hits. Throws std::logic_error on violation. Used by tests.
     *
     * Read-only: reconciliation against the current LC VID is applied
     * to line *snapshots*, never to the cached state, so tests may
     * interleave this check anywhere without perturbing the run.
     */
    void checkInvariants();

    /**
     * Recomputes every set's tag summary and the registry invariants
     * from a full scan of every cache, and each live VID's
     * |reads ∪ writes| from its sets, and compares them with the
     * incrementally maintained structures; throws std::logic_error on
     * any mismatch.
     * Runs automatically after bulk protocol actions when
     * MachineConfig::indexCrossCheck is set.
     */
    void verifyIndexes();

    /**
     * The line addresses currently recorded in @p vid's read set
     * (Figure 9 validation sets), sorted, into @p out (its previous
     * contents are dropped, its capacity kept). Exposed for the
     * golden-model differential checker.
     */
    void readSetOf(Vid vid, std::vector<Addr>& out) const;
    /** The line addresses in @p vid's write set, sorted, into @p out. */
    void writeSetOf(Vid vid, std::vector<Addr>& out) const;

    /** Index diagnostics (simulator-side, not architectural). */
    const IndexStats& indexStats() const { return idxStats_; }

  private:
    // --- protocol-engine bridge ---------------------------------------
    /** Architectural payload of @p l as the protocol engine sees it. */
    static VersionView
    viewOf(const Line& l)
    {
        return {l.state,      l.tag,        l.dirty,
                l.mayHaveSharers, l.latestCopy, l.highFromWrongPath};
    }

    /** Applies an engine-produced image back onto @p l. */
    static void
    applyView(Line& l, const VersionView& v)
    {
        l.state = v.state;
        l.tag = v.tag;
        l.dirty = v.dirty;
        l.mayHaveSharers = v.mayHaveSharers;
        l.latestCopy = v.latestCopy;
        l.highFromWrongPath = v.highFromWrongPath;
    }

    // --- lookup -------------------------------------------------------
    /**
     * Pure lazy-commit transition: folds everything at or below the
     * current LC VID into @p l (§4.4) without touching the index
     * structures. checkInvariants() runs this on snapshots.
     */
    void applyReconcile(Line& l) const;
    /** Reconciles a line against the current LC VID (lazy commit). */
    void reconcile(Line& l);
    /** True if this version hits request VID @p a (counts compares). */
    bool hits(const Line& l, Addr la, Vid a);
    /**
     * Finds the hitting version in one cache. @p forStore skips S-S
     * copies (stores must consult the responder/owner version).
     */
    Line* findLocal(Cache& c, Addr la, Vid a, bool forStore);
    struct RemoteHit
    {
        Line* line = nullptr;
        Cache* cache = nullptr;
        /** §5.4: some speculative version asserts the line was
         *  speculatively modified with a VID above the request's. */
        bool assertModified = false;
        /** Extra cycles (overflow-table walks) to charge. */
        Cycles extraLatency = 0;
    };
    /** Snoops all caches except @p self's L1. */
    RemoteHit findRemote(CoreId self, Addr la, Vid a);

    // --- allocation & eviction ----------------------------------------
    /**
     * Returns a slot for @p la in @p c, evicting if needed. May
     * trigger a capacity abort (§5.4), in which case nullptr is
     * returned and the caller must report the access as aborted.
     * An @p optional fill (S-S copies, §5.4 refetches) evicts only
     * non-speculative or copy-class victims and returns nullptr,
     * evicting nothing, when the set holds none.
     */
    Line* allocate(Cache& c, Addr la, bool optional = false);
    /**
     * Evicts @p victim from @p c per the §5.4 rules. @p victim must
     * be valid and already reconciled against the current LC VID
     * (allocate()'s victim pass does both).
     */
    bool evict(Cache& c, Line& victim);

    // --- protocol actions ---------------------------------------------
    /**
     * Applies the read marking for VID @p vid on owner version @p l
     * (may upgrade a non-exclusive non-speculative line, costing a
     * fabric transaction). Sets r.needSla when the line had not logged
     * this VID yet.
     */
    void applyReadMark(Line& l, Vid vid, AccessResult& r);
    /** Converts peer copies after a new version @p y of @p la. */
    void fixPeersForNewVersion(Addr la, const Line* owner, Vid y);
    /** Invalidates peer S-S copies of version @p mod of @p la. */
    void invalidatePeerSpecShared(Addr la, const Line* keep, Vid mod);
    /** Live read mark recovered from a destroyed latest-version S-S
     *  copy (§4.3); kNonSpecVid when none was dropped. */
    struct DroppedMark
    {
        Vid high = kNonSpecVid;
        bool wrongPath = false;
    };
    /**
     * Invalidates non-speculative copies of @p la except @p keep.
     * Latest-version S-S copies are dropped too; any live (> lcVid)
     * local read mark they carried is returned so the caller can fold
     * it into the surviving owner — destroying a copy must not erase
     * the record that a later VID read this version.
     */
    DroppedMark invalidateNonSpecPeers(Addr la, const Line* keep);
    /**
     * Folds the live local read mark of latest-copy @p victim into the
     * responder version of @p la (in a cache or the overflow table)
     * before the copy is destroyed. Returns false when no speculative
     * responder exists to carry it; the caller must then abort
     * conservatively.
     */
    bool foldCopyMark(Addr la, const Line& victim);
    /** True if any non-speculative copy of @p la but @p except is
     *  dirty (MOESI allows a clean S hit while a dirty O exists). */
    bool anyNonSpecDirty(Addr la, const Line* except);
    /** Triggers a global abort; records why. */
    void triggerAbort(const Line* offender);

    // --- data movement -------------------------------------------------
    /**
     * Payload of cache-resident line @p l, found through the owning
     * cache recorded in its slot bookkeeping (works for any cache in
     * the system, not just the local L1). Must not be called on
     * detached copies (overflow entries carry their payload
     * explicitly).
     */
    LineData&
    dataOf(Line& l)
    {
        return caches_[l.bk.cacheId].dataOf(l);
    }
    const LineData&
    dataOf(const Line& l) const
    {
        return caches_[l.bk.cacheId].dataOf(l);
    }
    std::uint64_t readData(const Line& l, Addr a, unsigned size) const;
    void writeData(Line& l, Addr a, std::uint64_t v, unsigned size);
    /**
     * Serializes a coherence transaction for @p la on the configured
     * interconnect and adds the requester's stall cycles to @p r.
     */
    void busAcquire(AccessResult& r, Addr la = 0);

    // --- index maintenance ----------------------------------------------
    /**
     * Single mutation funnel for the index structures: after any
     * change to a line's state/base/dirty, re-syncs its bit in its
     * set's tag summary and (if it became spec or dirty) enlists it
     * on its cache's registry. A line leaving an address rebuilds the
     * summary from its set's slots; safe to call redundantly.
     */
    void syncLine(Line& l);
    /**
     * Applies @p fn(cacheIndex) in ascending cache order to every
     * cache that may hold a version of @p la — every cache under
     * forceFullScan (or with more caches than the 64-bit snoop mask
     * has bits), otherwise those whose set of @p la has tagBit(la) in
     * its summary (a false positive is a set scan that finds nothing).
     * The holder mask is snapshotted first, so @p fn may invalidate
     * lines (and thereby clear summary bits) safely.
     */
    template <typename Fn>
    void
    forEachSnoopTarget(Addr la, Fn&& fn)
    {
        if (cfg_.forceFullScan || caches_.size() > 64) {
            for (std::size_t ci = 0; ci < caches_.size(); ++ci)
                fn(ci);
            return;
        }
        const std::uint64_t bit = tagBit(la);
        std::uint64_t mask = 0;
        std::uint64_t holders = 0; // popcount(mask), counted here: a
                                   // libgcc call without -mpopcnt
        for (std::size_t ci = 0; ci < caches_.size(); ++ci) {
            const bool hit = (caches_[ci].set(la).tags & bit) != 0;
            mask |= std::uint64_t{hit} << ci;
            holders += hit;
        }
        idxStats_.snoopsVisited += holders;
        idxStats_.snoopsFiltered += caches_.size() - holders;
        for (std::uint64_t m = mask; m != 0; m &= m - 1)
            fn(static_cast<std::size_t>(std::countr_zero(m)));
    }
    /** Where a bulk walk's overflow-table fold sits relative to its
     *  cache segments. */
    enum class OvPhase
    {
        None,
        BeforeLines,
        AfterLines,
    };

    /**
     * Which registry class a bulk walk needs to visit.
     * Commit/abort/VID-reset act only on speculative lines — a dirty
     * committed line is a no-op for all three — so they walk the spec
     * registry alone and stay O(window speculative footprint) even
     * when the caches hold a large dirty working set. Only the
     * region-boundary flush needs the union.
     */
    enum class WalkClass
    {
        /** Speculative lines only (commit/abort/vidReset). */
        Spec,
        /**
         * Spec plus dirty committed lines (flush). A line that is
         * both spec and dirty sits on both class registries and is
         * visited twice; the walk body must be idempotent.
         */
        SpecAndDirty,
    };

    /**
     * Runs one bulk protocol walk: every cache's registry (or
     * full-scan) segment in ascending cache order, with the overflow
     * table folded before or after them per @p ov.
     *
     * @p lineFn(Line&) runs for every line of the requested @p wc
     * registry class; @p ovFn(Line&, LineData&) for every overflow
     * entry. Under MachineConfig::forceFullScan every walk visits the
     * union class (each interesting line once), so Spec walk bodies
     * must be no-ops on non-spec dirty lines rather than rely on never
     * seeing them.
     */
    template <typename LineFn, typename OvFn>
    void
    bulkWalk(OvPhase ov, WalkClass wc, LineFn&& lineFn, OvFn&& ovFn)
    {
        if (ov == OvPhase::BeforeLines)
            overflow_.forEach(ovFn);
        std::uint64_t regLines = 0;
        for (Cache& c : caches_) {
            if (cfg_.forceFullScan) {
                c.forEachLine([&](Line& l) {
                    if (Cache::interesting(l))
                        lineFn(l);
                });
                continue;
            }
            auto visit = [&](Line& l) {
                ++regLines;
                lineFn(l);
            };
            c.forEachSpec(visit);
            if (wc == WalkClass::SpecAndDirty)
                c.forEachDirty(visit);
        }
        if (ov == OvPhase::AfterLines)
            overflow_.forEach(ovFn);
        if (cfg_.forceFullScan) {
            ++idxStats_.fullScanWalks;
        } else {
            ++idxStats_.registryWalks;
            idxStats_.registryWalkLines += regLines;
        }
    }
    /** Runs verifyIndexes() when MachineConfig::indexCrossCheck. */
    void
    maybeCrossCheck()
    {
        if (cfg_.indexCrossCheck)
            verifyIndexes();
    }

    // --- bookkeeping ----------------------------------------------------
    /**
     * Record (vid, la) in the per-VID read/write sets. @p l, when
     * given, is a cache-resident line of address @p la: its rw marks
     * (Line::rwReadVid/rwWriteVid/rwGen) let the common re-touch of an
     * already-recorded line skip the hash-set insert entirely. Marks
     * are validated against rwGen_, which bumps whenever the sets are
     * cleared wholesale (abort, VID reset).
     */
    void recordRead(Vid vid, Addr la, Line* l = nullptr);
    void recordWrite(Vid vid, Addr la, Line* l = nullptr);
    void noteShadowWrongPath(Addr la, Vid vid);
    void checkShadowAvoided(Addr la, Vid storeVid);

    AccessResult nonSpecStore(CoreId core, Addr a, std::uint64_t value,
                              unsigned size);

    /**
     * Load body shared by the speculative, non-speculative, and
     * serialized-fallback paths; @p serialized forces non-speculative
     * semantics (request VID 0, no marks/SLA) for a fallback holder.
     * Fills @p r, which must be default-constructed.
     */
    void loadImpl(AccessResult& r, CoreId core, Addr a, unsigned size,
                  Vid vid, bool wrongPath, bool serialized);

    // load()'s rare paths, kept out of line so its common path stays
    // small. Each adjusts the result @p r in place.

    /** LimitedSet capacity abort raised before the load executes. */
    [[gnu::cold, gnu::noinline]] void limitedSetLoadAbort(AccessResult& r);
    /** Re-runs a completed load whose own optional allocation raised
     *  a global flush after abort generation @p gen, until it settles. */
    [[gnu::cold, gnu::noinline]] void
    retryLoadAfterFlush(AccessResult& r, std::uint64_t gen, CoreId core,
                        Addr a, unsigned size, Vid vid, bool wrongPath);
    /** Re-runs the fallback holder's aborted load once after the global
     *  flush it raised; the retry must succeed. */
    [[gnu::cold, gnu::noinline]] void
    retryHolderLoad(AccessResult& r, CoreId core, Addr a, unsigned size,
                    Vid vid, bool wrongPath);

    /**
     * LimitedSet policy check: true when touching line @p la under
     * @p vid would exceed the K-line speculative-set bound (the line
     * is not already in the VID's sets and the sets are full). The
     * caller must then raise a capacity abort instead of executing
     * the access.
     */
    bool limitedSetBlocks(Vid vid, Addr la);

    EventQueue& eq_;
    /**
     * Logical access clock for replacement recency. Line::lastUse is
     * stamped from this counter, not from eq_.curTick(): simulated
     * time advances differently under different fabrics and commit
     * modes (bus vs directory occupancy, eager walk costs), and tying
     * LRU to it would make victim selection — and therefore hit/miss
     * behaviour — depend on the timing model. A per-access counter
     * keeps replacement a pure function of the access sequence.
     */
    Tick useClock_ = 0;
    MachineConfig cfg_;
    MainMemory mem_;
    /** caches_[0..numCores-1] are L1s; caches_.back() is the L2. */
    std::vector<Cache> caches_;
    Vid lcVid_ = 0;
    std::uint64_t abortGen_ = 0;
    VidComparator cmp_;
    SysStats stats_;
    /** Transaction-mode policy (commit walks, fallback, K bound). */
    TxPolicy policy_;
    /** The coherence fabric (timing/occupancy; references stats_). */
    std::unique_ptr<Interconnect> net_;
    Trace trace_;

    /** Spilled speculative versions (unbounded-sets extension). */
    OverflowTable overflow_;

    IndexStats idxStats_;

    /** Wrong-path shadow marks: line -> highest wrong-path VID (§5.1
     *  "aborts avoided via SLA" accounting). */
    FlatAddrMap<Vid> shadow_;

    /**
     * rwSets_[0, rwLive_) are the live VIDs' sets, in no particular
     * order; the slots beyond are cleared spares. Commit and abort
     * clear sets without freeing them, so a steady stream of
     * transactions reuses the same storage.
     */
    std::vector<RwSets> rwSets_;
    std::size_t rwLive_ = 0;
    /** Live VID -> its index in rwSets_. */
    FlatAddrMap<std::uint32_t> rwSlot_;
    /** Live sets of @p vid, or nullptr when it recorded nothing. */
    const RwSets* rwFind(Vid vid) const;
    /** Live sets of @p vid, taking a spare slot on first use; cached
     *  for the last VID looked up. */
    RwSets& rwFor(Vid vid);
    /** Retires @p vid's sets (commit), keeping their capacity. */
    void rwRelease(Vid vid);
    /** Retires every live VID's sets (abort). */
    void rwReleaseAll();
    /** rwSets_ index of the last VID rwFor() returned, if still live. */
    static constexpr std::size_t kNoRwSlot = ~std::size_t{0};
    Vid rwCachedVid_ = 0;
    std::size_t rwCachedSlot_ = kNoRwSlot;
    /**
     * Generation validating Line rw marks; bumped whenever the rw sets
     * are cleared wholesale (abort, VID reset) so stale marks from a
     * previous transaction era can never suppress a fresh insert.
     * Starts at 1: default-initialized lines (rwGen = 0) are stale.
     */
    std::uint32_t rwGen_ = 1;

    /** The just-constructed state reset() restores. */
    Snapshot initial_;

    // Scratch of checkInvariants()/verifyIndexes(): cleared on each
    // call, kept so the self-checks the differ runs every 32 ops do
    // not reallocate.
    std::vector<Addr> checkAddrs_;
    std::vector<LineVersion> checkLive_;
    /** One registry's entries, sorted to find duplicates. */
    std::vector<const Line*> checkRegs_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_CACHE_SYSTEM_HH
