/**
 * @file
 * Set-associative cache storage holding versioned lines.
 *
 * Storage is split into two planes per set (an SoA layout): a
 * contiguous *metadata* plane of compact Line records
 * (base/state/VID tags/flags — what every probe, snoop and bulk walk
 * reads) and a parallel *data* plane of 64-byte line payloads that only
 * actual data movement touches. A set probe therefore streams a few
 * host cache lines of metadata instead of striding through payload-
 * laden line objects.
 */

#ifndef HMTX_SIM_CACHE_HH
#define HMTX_SIM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "core/spec_state.hh"
#include "core/types.hh"
#include "core/version_rules.hh"
#include "sim/memory.hh"

namespace hmtx::sim
{

/** Cache id of a Line slot not owned by any Cache (e.g. a local copy). */
constexpr std::uint32_t kNoCacheId = 0xffffffffu;

/**
 * Simulator-internal bookkeeping attached to each cache slot so the
 * index structures (the per-set tag summaries and the per-cache
 * spec/dirty registry) can be maintained incrementally. This is not
 * architectural state: it never influences simulated behaviour, only
 * how fast the simulator finds lines. It is deliberately *not* copied
 * by Line's copy operations — a slot's identity stays with the slot.
 */
struct LineBookkeeping
{
    /** Index of the owning Cache in CacheSystem::caches_. */
    std::uint32_t cacheId = kNoCacheId;
    /** True while this slot's tagBit(presentAddr) is ORed into its
     *  set's LineSet::tags summary. */
    bool present = false;
    /** True while this slot sits on the owning cache's *speculative*
     *  registry (lines in a spec state). */
    bool onSpecReg = false;
    /** True while this slot sits on the owning cache's *dirty*
     *  registry (valid lines holding data memory does not). */
    bool onDirtyReg = false;
    /** Address under which `present` was counted (may lag `base`). */
    Addr presentAddr = 0;
};

/**
 * One physical cache line slot's *metadata*. Multiple versions of the
 * same address may occupy slots of the same set, distinguished by
 * their VersionTag (§4.1). Invalid slots are reused rather than erased
 * so references into a set stay valid across protocol actions.
 *
 * The 64-byte payload lives in the owning set's parallel data plane
 * (Cache::dataOf); detached copies (overflow-table spills) carry their
 * payload separately.
 *
 * Copying a Line copies only the architectural payload; the `bk`
 * bookkeeping stays with the destination slot (see LineBookkeeping).
 */
struct Line
{
    /** Line-aligned base address (valid only when state != Invalid). */
    Addr base = 0;
    /** Coherence state, including the speculative states. */
    State state = State::Invalid;
    /** True when the data differs from main memory. */
    bool dirty = false;
    /**
     * True when peer caches may hold S-S copies of this version; a
     * write-in-place must then broadcast to invalidate them.
     */
    bool mayHaveSharers = false;
    /**
     * For S-S lines only: this is a copy of the *latest* version of
     * the line (its owner is S-M/S-E), so it serves any request VID
     * >= modVID and records the highest local reader in highVID —
     * that is what makes sharing read-only speculative data efficient
     * across transactions (§4.1). Store broadcasts aggregate these
     * distributed read marks and supersede or invalidate the copies.
     * When false, an S-S line is a copy of a superseded version and
     * highVID is the usual coverage bound (hit iff mod <= a < high).
     */
    bool latestCopy = false;
    /**
     * True when highVID was last raised by a wrong-path load (only
     * possible with SLAs disabled); used to classify false aborts.
     */
    bool highFromWrongPath = false;
    /** (modVID, highVID) version tags (§4.1). */
    VersionTag tag{};
    /**
     * Read/write-set recording marks (simulator-side dedup, not
     * architectural): the last VID whose read (resp. write) of this
     * line was entered into the per-VID set accounting, valid only
     * while `rwGen` matches CacheSystem's current LC generation (the
     * generation bumps on every commit/abort/VID reset). Lets the
     * per-access hot path skip the hash-set insert for the common
     * re-touch of a line the transaction already recorded.
     */
    Vid rwReadVid = kNonSpecVid;
    Vid rwWriteVid = kNonSpecVid;
    std::uint32_t rwGen = 0;
    /** LRU timestamp. */
    Tick lastUse = 0;
    /** Index bookkeeping; slot identity, excluded from copies. */
    LineBookkeeping bk{};

    Line() = default;
    Line(const Line& o) { assignPayload(o); }
    Line(Line&& o) noexcept { assignPayload(o); }

    Line&
    operator=(const Line& o)
    {
        if (this != &o)
            assignPayload(o);
        return *this;
    }

    Line&
    operator=(Line&& o) noexcept
    {
        if (this != &o)
            assignPayload(o);
        return *this;
    }

  private:
    void
    assignPayload(const Line& o)
    {
        base = o.base;
        state = o.state;
        tag = o.tag;
        dirty = o.dirty;
        mayHaveSharers = o.mayHaveSharers;
        latestCopy = o.latestCopy;
        highFromWrongPath = o.highFromWrongPath;
        rwReadVid = o.rwReadVid;
        rwWriteVid = o.rwWriteVid;
        rwGen = o.rwGen;
        lastUse = o.lastUse;
    }
};

// One host cache line per slot: the 32-way L2 set scan streams these
// records, and fig8's resident set holds one per cached line.
static_assert(sizeof(Line) <= 64, "sim::Line must fit one 64-byte host line");

/**
 * Summary bit of line address @p la: one of 64, picked by the top six
 * bits of a Fibonacci hash of the line number. The set index uses the
 * low bits, so addresses sharing a set still spread over the word.
 */
constexpr std::uint64_t
tagBit(Addr la)
{
    return std::uint64_t{1}
        << (((la >> kLineShift) * 0x9e3779b97f4a7c15ull) >> 58);
}

/**
 * One set's two storage planes. `lines[i]`'s payload is `data[i]`;
 * the vectors grow in lockstep (up to the associativity limit) so
 * pointers into both stay stable.
 */
struct LineSet
{
    std::vector<Line> lines;
    std::vector<LineData> data;
    /**
     * OR of tagBit(l.base) over the set's valid lines, kept by
     * CacheSystem::syncLine(); zero in overflow-table version lists.
     * Every version of an address lives in the same set (§4.1), so a
     * clear bit proves the cache holds no version of that address (the
     * snoop filter); a set bit may be another address's.
     */
    std::uint64_t tags = 0;
};

/**
 * Dumb set-associative storage: geometry, lookup and slot allocation.
 * All protocol intelligence lives in CacheSystem so the full snoopy
 * state is manipulated in one place.
 */
class Cache
{
  public:
    /**
     * @param name  for debugging/stat output (e.g. "L1.0", "L2")
     * @param sets  number of sets
     * @param assoc associativity (max versions+addresses per set)
     * @param id    index of this cache in its CacheSystem (stamped on
     *              every slot so index maintenance can find the owner)
     */
    Cache(std::string name, unsigned sets, unsigned assoc,
          std::uint32_t id = kNoCacheId)
        : name_(std::move(name)), id_(id), setCount_(sets),
          pow2Sets_(std::has_single_bit(sets)), assoc_(assoc),
          sets_(sets)
    {}

    const std::string& name() const { return name_; }
    std::uint32_t id() const { return id_; }
    unsigned assoc() const { return assoc_; }
    unsigned setCount() const { return setCount_; }

    /**
     * True when @p l needs to be visited by *some* bulk protocol walk
     * (commit/abort/VID-reset/flush): it is speculative in some way or
     * holds data memory does not. Clean non-speculative lines are
     * no-ops for all of those walks. This is the union of the two
     * registry classes below; the full-scan fallback and the
     * invariant checks still use it.
     */
    static bool
    interesting(const Line& l)
    {
        return l.state != State::Invalid && (isSpec(l.state) || l.dirty);
    }

    /**
     * Registry class 1: lines in a speculative state. The
     * commit/abort/VID-reset walks act *only* on these — a dirty
     * committed line is a no-op for all three — so keeping them on
     * their own registry makes those walks scale with the VID
     * window's speculative footprint instead of the dirty working
     * set (which a serving workload keeps resident for the whole
     * run).
     */
    static bool
    specInteresting(const Line& l)
    {
        return l.state != State::Invalid && isSpec(l.state);
    }

    /**
     * Registry class 2: valid lines holding data memory does not.
     * Only the region-boundary flush needs these; a line that is both
     * spec and dirty sits on both registries.
     */
    static bool
    dirtyInteresting(const Line& l)
    {
        return l.state != State::Invalid && l.dirty;
    }

    /**
     * Puts @p l on this cache's class registries of interesting lines
     * (the ORB analog, §4.4) — the spec registry if it is in a
     * speculative state, the dirty registry if it holds unwritten
     * data — if it is not already there. Slots are never removed
     * eagerly; the walks purge stale entries lazily. @p l must be a
     * slot of this cache.
     */
    void
    noteInteresting(Line& l)
    {
        if (isSpec(l.state) && !l.bk.onSpecReg) {
            l.bk.onSpecReg = true;
            specReg_.push_back(&l);
        }
        if (l.dirty && l.state != State::Invalid && !l.bk.onDirtyReg) {
            l.bk.onDirtyReg = true;
            dirtyReg_.push_back(&l);
        }
    }

    /**
     * Applies @p fn to every speculative line, dropping registry
     * entries that went stale since they were added. Entries whose
     * line @p fn itself retires (e.g. a commit walk reconciling a line
     * to non-spec) are also dropped, so repeated walks stay
     * proportional to live speculative state. @p fn may re-enlist the
     * line on the *dirty* registry (via noteInteresting) but must not
     * make a non-spec line speculative.
     */
    template <typename Fn>
    void
    forEachSpec(Fn&& fn)
    {
        walkReg(specReg_, &specInteresting, &LineBookkeeping::onSpecReg,
                fn);
    }

    /**
     * Applies @p fn to every dirty valid line, with the same
     * lazy-purge discipline as forEachSpec(). Lines that are both spec
     * and dirty appear here too — a walk needing the union (flush)
     * visits both registries and must tolerate seeing such a line
     * twice.
     */
    template <typename Fn>
    void
    forEachDirty(Fn&& fn)
    {
        walkReg(dirtyReg_, &dirtyInteresting, &LineBookkeeping::onDirtyReg,
                fn);
    }

    /** Current registry lengths, stale entries and dual-class
     *  duplicates included (diagnostics). */
    std::size_t
    registrySize() const
    {
        return specReg_.size() + dirtyReg_.size();
    }

    /** Applies @p fn(const Line*) to every raw spec-registry entry
     *  (index cross-check). */
    template <typename Fn>
    void
    forEachSpecRegistryEntry(Fn&& fn) const
    {
        for (const Line* l : specReg_)
            fn(l);
    }

    /** Dirty-registry analog of forEachSpecRegistryEntry(). */
    template <typename Fn>
    void
    forEachDirtyRegistryEntry(Fn&& fn) const
    {
        for (const Line* l : dirtyReg_)
            fn(l);
    }

    /** Set index for an address: a mask for power-of-two set counts
     *  (every built-in geometry), a modulo for the rest. */
    std::size_t
    setIndex(Addr a) const
    {
        const std::size_t n = a >> kLineShift;
        return pow2Sets_ ? n & (setCount_ - 1) : n % setCount_;
    }

    /** Both planes of the set containing @p a. */
    LineSet& set(Addr a) { return sets_[setIndex(a)]; }

    /**
     * Payload of cache-resident line @p l (which must be a slot of
     * this cache, with its base set).
     */
    LineData&
    dataOf(Line& l)
    {
        LineSet& s = sets_[setIndex(l.base)];
        return s.data[static_cast<std::size_t>(&l - s.lines.data())];
    }
    const LineData&
    dataOf(const Line& l) const
    {
        const LineSet& s = sets_[setIndex(l.base)];
        return s.data[static_cast<std::size_t>(&l - s.lines.data())];
    }

    /** Applies @p fn(LineSet&) to every set in the cache. */
    template <typename Fn>
    void
    forEachSet(Fn&& fn)
    {
        for (auto& s : sets_)
            fn(s);
    }

    /** Applies @p fn to every metadata slot in the cache. */
    template <typename Fn>
    void
    forEachLine(Fn&& fn)
    {
        for (auto& s : sets_)
            for (auto& l : s.lines)
                fn(l);
    }

    /**
     * Returns the cache to its just-constructed state: every set
     * empty, both registries empty. Keeps the capacity of every
     * vector, so refilling a reset cache allocates nothing. Slots are
     * dropped rather than invalidated: a fresh cache grows its sets
     * from default-constructed lines, and a reused slot would carry
     * stale rw marks and LRU stamps into the next run.
     */
    void
    reset()
    {
        for (auto& s : sets_) {
            s.lines.clear();
            s.data.clear();
            s.tags = 0;
        }
        specReg_.clear();
        dirtyReg_.clear();
    }

    /** Number of valid slots currently held. */
    std::size_t
    validLines() const
    {
        std::size_t n = 0;
        for (const auto& s : sets_)
            for (const auto& l : s.lines)
                if (l.state != State::Invalid)
                    ++n;
        return n;
    }

    /**
     * Returns an empty slot in the set of @p a, growing the set up to
     * the associativity limit; returns nullptr when the set is full
     * (the caller must evict first).
     */
    Line*
    freeSlot(Addr a)
    {
        auto& s = set(a);
        // Reserve up front on first touch so growth never reallocates:
        // protocol code holds Line* across slot allocations in the
        // same set.
        if (s.lines.capacity() < assoc_) {
            s.lines.reserve(assoc_);
            s.data.reserve(assoc_);
        }
        for (auto& l : s.lines)
            if (l.state == State::Invalid)
                return &l;
        if (s.lines.size() < assoc_) {
            s.lines.emplace_back();
            s.data.emplace_back();
            s.lines.back().bk.cacheId = id_;
            return &s.lines.back();
        }
        return nullptr;
    }

  private:
    /**
     * Shared walk-and-purge body of the class registries: visits
     * every entry of @p reg still satisfying @p pred, dropping (and
     * unflagging via @p flag) entries that no longer do — before the
     * visit for entries gone stale since they were added, after it
     * for entries @p fn itself retires.
     */
    template <typename Pred, typename Fn>
    static void
    walkReg(std::vector<Line*>& reg, Pred pred,
            bool LineBookkeeping::* flag, Fn&& fn)
    {
        std::size_t i = 0;
        while (i < reg.size()) {
            Line& l = *reg[i];
            if (!pred(l)) {
                l.bk.*flag = false;
                reg[i] = reg.back();
                reg.pop_back();
                continue;
            }
            fn(l);
            if (!pred(l)) {
                l.bk.*flag = false;
                reg[i] = reg.back();
                reg.pop_back();
                continue;
            }
            ++i;
        }
    }

    std::string name_;
    std::uint32_t id_;
    unsigned setCount_;
    bool pow2Sets_;
    unsigned assoc_;
    std::vector<LineSet> sets_;
    /** Class registries of slots that were spec (resp. dirty) when
     *  last touched (lazily purged). */
    std::vector<Line*> specReg_;
    std::vector<Line*> dirtyReg_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_CACHE_HH
