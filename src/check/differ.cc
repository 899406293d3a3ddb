/**
 * @file
 * The differential runner: golden model vs. the grouped 8-cell config
 * matrix. Each group (full-HMTX, best-effort, limited-set) runs the
 * schedule independently against its own golden model — commit modes
 * differ architecturally by design, so cross-cell comparison is only
 * meaningful within a group.
 */

#include <algorithm>
#include <cstdio>
#include <memory>
#include <memory_resource>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "check/differ.hh"
#include "check/golden.hh"
#include "sim/cache_system.hh"
#include "sim/rng.hh"

namespace hmtx::check
{

namespace
{

/** Full-HMTX group: {bus, dir} × {lazy, eager}. */
constexpr int kCells = kHmtxCells;

const char* const kCellNames[kCells] = {"bus/lazy", "bus/eager",
                                        "dir/lazy", "dir/eager"};

const char*
groupName(unsigned g)
{
    switch (g) {
    case kGroupHmtx: return "hmtx";
    case kGroupBtx: return "btx";
    case kGroupLtd: return "ltd";
    default: return "?";
    }
}

/** Policy the golden model and the mode cells of @p group share. */
TxPolicyConfig
groupPolicy(const FuzzConfig& c, unsigned g)
{
    TxPolicyConfig pc;
    if (g == kGroupBtx) {
        pc.mode = TxMode::BestEffort;
        pc.btxMaxRetries = c.btxRetries;
        pc.btxAbortThreshold = c.btxThreshold;
    } else if (g == kGroupLtd) {
        pc.mode = TxMode::LimitedSet;
        pc.limitedSetK = c.limitedK;
    }
    return pc;
}

/** The fields every cell takes from @p c, on fabric @p f. */
sim::MachineConfig
sharedCellConfig(const FuzzConfig& c, sim::Fabric f)
{
    sim::MachineConfig mc;
    mc.numCores = c.numCores;
    mc.l1SizeKB = c.l1KB;
    mc.l1Assoc = c.l1Assoc;
    mc.l2SizeKB = c.l2KB;
    mc.l2Assoc = c.l2Assoc;
    mc.vidBits = c.vidBits;
    mc.slaEnabled = c.slaEnabled;
    mc.fabric = f;
    return mc;
}

} // namespace

sim::MachineConfig
cellConfig(const FuzzConfig& c, int i)
{
    sim::MachineConfig mc = sharedCellConfig(
        c, i < 2 ? sim::Fabric::SnoopBus : sim::Fabric::Directory);
    mc.unboundedSpecSets = c.unboundedSpecSets;
    mc.txMode = (i % 2) == 0 ? TxMode::LazyHmtx
                             : TxMode::EagerHmtx;
    // One cell polices the incremental indexes after every bulk op;
    // another runs the reference full-scan path, so index bugs show up
    // as cross-cell divergence even between cross-checks.
    mc.indexCrossCheck = i == 0;
    mc.forceFullScan = i == 1;
    return mc;
}

/** Config for one {fabric} cell of a mode group (btx or ltd). */
sim::MachineConfig
modeCellConfig(const FuzzConfig& c, unsigned g, sim::Fabric f)
{
    sim::MachineConfig mc = sharedCellConfig(c, f);
    // Bounded modes exist to cap speculative footprints; the config
    // layer rejects them with unbounded spec sets.
    mc.unboundedSpecSets = false;
    const TxPolicyConfig pc = groupPolicy(c, g);
    mc.txMode = pc.mode;
    mc.btxMaxRetries = pc.btxMaxRetries;
    mc.btxAbortThreshold = pc.btxAbortThreshold;
    mc.limitedSetK = pc.limitedSetK;
    return mc;
}

namespace
{

std::uint64_t
sizeMask(unsigned size)
{
    return size >= 8 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << (8 * size)) - 1;
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

struct Cell
{
    const char* name;
    sim::EventQueue eq;
    sim::CacheSystem sys;

    Cell(const char* n, const sim::MachineConfig& mc) : name(n), sys(eq, mc)
    {}

    /** As if rebuilt for @p mc, which keeps the cell's structure:
     *  the just-built state, queue at tick 0. */
    void
    reset(const sim::MachineConfig& mc)
    {
        eq.reset();
        sys.reset(mc);
    }
};

/** One pending deferred-mark acknowledgment (§5.1). */
struct PendingSla
{
    CoreId core;
    SlaEntry e;
};

/**
 * Everything CellMatrix::Group::save() records. The checkpoint and its
 * cells' snapshots allocate from @p mr, the group's arena.
 */
struct Checkpoint
{
    Checkpoint(std::size_t cellCount, std::pmr::memory_resource* mr)
        : cells(mr), gold(true, {}, mr), pending(mr)
    {
        cells.reserve(cellCount);
        for (std::size_t i = 0; i < cellCount; ++i)
            cells.emplace_back(mr);
    }

    std::pmr::vector<sim::CacheSystem::Snapshot> cells;
    GoldenModel gold;
    std::pmr::vector<PendingSla> pending;
    std::uint64_t executed = 0;
    Divergence div;
};

} // namespace

/**
 * One cell group of the matrix: its cells, built once for the
 * FuzzConfig's structure and retargeted to each config, and the
 * per-run state (golden model, pending SLAs, divergence), rebuilt by
 * begin() and checkpointed by save().
 */
class CellMatrix::Group
{
  public:
    /** @p path is the matrix's list of the ops stepped so far. */
    Group(const FuzzConfig& cfg, unsigned group,
          const std::vector<Op>& path)
        : cfg_(cfg), group_(group), path_(path)
    {
        static const char* const kBtxNames[] = {"bus/btx", "dir/btx"};
        static const char* const kLtdNames[] = {"bus/ltd", "dir/ltd"};
        const char* const* names = group == kGroupHmtx ? kCellNames
            : group == kGroupBtx                       ? kBtxNames
                                                       : kLtdNames;
        const std::size_t n = group == kGroupHmtx ? kCells : 2;
        for (std::size_t i = 0; i < n; ++i)
            cells_.push_back(
                std::make_unique<Cell>(names[i], cellConfigOf(cfg, i)));
        maxVid_ = cells_[0]->sys.config().maxVid();
    }

    ~Group() { dropSaves(); }

    /** The arena's first block, per cell. The checkpoints of one
     *  exploration of a 6-op model-checker program take 9.1 KB per
     *  cell at the median and 11.6 KB at the 99th percentile (seeds
     *  1-200), so most explorations allocate one block per group. */
    static constexpr std::size_t kArenaBytesPerCell = 12 * 1024;

    unsigned group() const { return group_; }

    /** Destroys every checkpoint and frees the arena they live in. */
    void
    dropSaves()
    {
        for (Checkpoint* cp : saves_)
            if (cp != nullptr)
                std::destroy_at(cp);
        saves_.clear();
        arena_.reset();
    }

    /** Throws std::invalid_argument if a cell of the group rejects
     *  its config under @p cfg (MachineConfig::validate()). */
    void
    validate(const FuzzConfig& cfg) const
    {
        for (std::size_t i = 0; i < cells_.size(); ++i)
            cellConfigOf(cfg, i).validate();
    }

    /** True when every cell can be reset to its config under @p cfg
     *  (CacheSystem::sameStructure()). */
    bool
    fits(const FuzzConfig& cfg) const
    {
        for (std::size_t i = 0; i < cells_.size(); ++i)
            if (!cells_[i]->sys.sameStructure(cellConfigOf(cfg, i)))
                return false;
        return true;
    }

    /** True when slot @p depth holds a save() since the last
     *  dropSaves(). */
    bool
    saved(std::size_t depth) const
    {
        return depth < saves_.size() && saves_[depth] != nullptr;
    }

    /** Makes the group what Group(@p cfg, ...) builds; fits(@p cfg)
     *  must hold. */
    void
    retarget(const FuzzConfig& cfg)
    {
        cfg_ = cfg;
        for (std::size_t i = 0; i < cells_.size(); ++i)
            cells_[i]->reset(cellConfigOf(cfg_, i));
        maxVid_ = cells_[0]->sys.config().maxVid();
    }

    /** Starts a run of a schedule with @p program's ops: fresh
     *  golden model, cells reset, memory seeded from the word set. */
    void
    begin(const Schedule& program, const RunHooks* hooks)
    {
        gold_.reset(cfg_.slaEnabled, groupPolicy(cfg_, group_));
        pending_.clear();
        executed_ = 0;
        div_ = {};
        for (auto& c : cells_)
            c->reset(c->sys.config());
        if (hooks != nullptr && hooks->onCell)
            for (auto& c : cells_)
                hooks->onCell(c->name, c->sys);
        seedMemory(program);
    }

    /** Runs the path's last op, then the periodic self-check, unless
     *  the group has diverged. */
    void
    step()
    {
        if (div_.found)
            return;
        const std::size_t idx = path_.size() - 1;
        stepOp(idx);
        if (!div_.found && (idx + 1) % 32 == 0)
            checkInvariants(idx);
    }

    /** Records the cells and the per-run state into checkpoint
     *  slot @p depth. */
    void
    save(std::size_t depth)
    {
        if (saves_.size() <= depth)
            saves_.resize(depth + 1, nullptr);
        if (saves_[depth] == nullptr) {
            if (!arena_)
                arena_.emplace(cells_.size() * kArenaBytesPerCell);
            saves_[depth] = std::pmr::polymorphic_allocator<>(&*arena_)
                                .new_object<Checkpoint>(cells_.size(),
                                                        &*arena_);
        }
        Checkpoint& cp = *saves_[depth];
        for (std::size_t i = 0; i < cells_.size(); ++i)
            cells_[i]->sys.snapshot(cp.cells[i]);
        cp.gold = gold_;
        cp.pending.assign(pending_.begin(), pending_.end());
        cp.executed = executed_;
        cp.div = div_;
    }

    /** Returns to what save(@p depth) recorded; saved(@p depth) must
     *  hold. */
    void
    restore(std::size_t depth)
    {
        const Checkpoint& cp = *saves_[depth];
        for (std::size_t i = 0; i < cells_.size(); ++i)
            cells_[i]->sys.restore(cp.cells[i]);
        gold_ = cp.gold;
        pending_.assign(cp.pending.begin(), cp.pending.end());
        executed_ = cp.executed;
        div_ = cp.div;
    }

    /**
     * Ends the run: the final checks unless diverged, then the
     * coverage (run counts from the @p primary group only).
     */
    Divergence
    finish(Coverage* cov, bool primary)
    {
        if (!div_.found)
            finalChecks();
        if (cov && primary) {
            ++cov->schedules;
            cov->ops += executed_;
            accumulate(cov->sys, cells_[0]->sys.stats());
        }
        if (cov)
            accumulate(cov->tx, cells_[0]->sys.txPolicy().stats());
        return div_;
    }

    std::size_t cells() const { return cells_.size(); }

    bool diverged() const { return div_.found; }

  private:
    /** MachineConfig of cell @p i of this group under @p cfg. */
    sim::MachineConfig
    cellConfigOf(const FuzzConfig& cfg, std::size_t i) const
    {
        if (group_ == kGroupHmtx)
            return cellConfig(cfg, static_cast<int>(i));
        return modeCellConfig(cfg, group_,
                              i == 0 ? sim::Fabric::SnoopBus
                                     : sim::Fabric::Directory);
    }

    // --- divergence reporting ----------------------------------------

    void
    fail(std::size_t idx, std::string what)
    {
        if (div_.found)
            return;
        div_.found = true;
        div_.opIndex = idx;
        if (idx != static_cast<std::size_t>(-1)) {
            const Op& op = path_[idx];
            what = "op#" + std::to_string(idx) + " " + describe(op) +
                   ": " + what;
        }
        div_.what = std::move(what);
    }

    // --- setup -------------------------------------------------------

    void
    seedMemory(const Schedule& program)
    {
        words_.clear();
        for (const Op& op : program.ops)
            if (isMemoryAccess(op.kind))
                words_.push_back(op.addr & ~Addr{7});
        std::sort(words_.begin(), words_.end());
        words_.erase(std::unique(words_.begin(), words_.end()),
                     words_.end());
        for (Addr w : words_) {
            sim::Rng r(w ^ 0x5bd1e995a967f2d3ull);
            std::uint64_t v = r.next();
            gold_.seed(w, v);
            for (auto& c : cells_)
                c->sys.memory().write(w, v, 8);
        }
    }

    // --- cross-cell execution ----------------------------------------

    /**
     * Runs @p fn on every cell; verifies the cells agree on the
     * AccessResult (minus latency), the abort-generation delta, the
     * capacity-abort delta, and lcVid. Returns false once diverged.
     * @p out receives cell 0's result; @p genDelta / @p capacity the
     * agreed abort deltas.
     */
    template <typename Fn>
    bool
    runAll(std::size_t idx, Fn&& fn, sim::AccessResult& out,
           std::uint64_t& genDelta, bool& capacity)
    {
        sim::AccessResult r0{};
        std::uint64_t gen0 = 0, cap0 = 0;
        for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
            Cell& c = *cells_[ci];
            const std::uint64_t g = c.sys.abortGen();
            const std::uint64_t cap = c.sys.stats().capacityAborts;
            sim::AccessResult r;
            try {
                r = fn(c);
            } catch (const std::exception& ex) {
                fail(idx, std::string(c.name) + " threw: " + ex.what());
                return false;
            }
            const std::uint64_t gd = c.sys.abortGen() - g;
            const std::uint64_t cd =
                c.sys.stats().capacityAborts - cap;
            if (ci == 0) {
                r0 = r;
                gen0 = gd;
                cap0 = cd;
            } else if (gd != gen0 || cd != cap0) {
                fail(idx, std::string("abort disagreement: cell ") +
                         c.name + " gen+" + std::to_string(gd) +
                         " cap+" + std::to_string(cd) + ", cell " +
                         cells_[0]->name + " gen+" +
                         std::to_string(gen0) + " cap+" +
                         std::to_string(cap0));
                return false;
            } else if (r.value != r0.value ||
                       r.aborted != r0.aborted ||
                       r.needSla != r0.needSla ||
                       r.l1Hit != r0.l1Hit) {
                fail(idx,
                     std::string("result disagreement vs ") + c.name +
                         ": value " + hex(r0.value) + "/" +
                         hex(r.value) + " aborted " +
                         std::to_string(r0.aborted) + "/" +
                         std::to_string(r.aborted) + " needSla " +
                         std::to_string(r0.needSla) + "/" +
                         std::to_string(r.needSla) + " l1Hit " +
                         std::to_string(r0.l1Hit) + "/" +
                         std::to_string(r.l1Hit));
                return false;
            }
        }
        for (auto& c : cells_) {
            if (c->sys.lcVid() != cells_[0]->sys.lcVid()) {
                fail(idx, std::string("lcVid disagreement: ") +
                              c->name + "=" +
                              std::to_string(c->sys.lcVid()));
                return false;
            }
        }
        out = r0;
        genDelta = gen0;
        capacity = cap0 != 0;
        return true;
    }

    /**
     * Golden resync after real aborts. The flush itself is idempotent,
     * but the golden's TxPolicy counts consecutive aborts exactly as
     * every cell's does, so abortAll() must run once per real
     * abort-generation tick to keep the fallback state machines in
     * lockstep.
     */
    void
    syncAbort(std::uint64_t n = 1)
    {
        for (std::uint64_t i = 0; i < n; ++i)
            gold_.abortAll();
        pending_.clear();
    }

    /**
     * Classifies a real abort the golden did not predict: capacity
     * aborts are environmental and resync the golden; anything else is
     * a divergence. Returns false on divergence.
     */
    bool
    acceptEnvAbort(std::size_t idx, std::uint64_t gen, bool capacity,
                   const char* what)
    {
        if (!capacity) {
            fail(idx, std::string(what) +
                          ": abort not predicted by golden model and "
                          "no capacity abort recorded");
            return false;
        }
        syncAbort(gen);
        return true;
    }

    // --- op execution ------------------------------------------------

    void
    stepOp(std::size_t idx)
    {
        const Op& op = path_[idx];
        switch (op.kind) {
        case OpKind::Load:
        case OpKind::WrongPathLoad:
            doLoad(idx, op, op.kind == OpKind::WrongPathLoad);
            return;
        case OpKind::NonSpecLoad:
            doLoad(idx, op, false);
            return;
        case OpKind::Store:
        case OpKind::NonSpecStore:
            doStore(idx, op);
            return;
        case OpKind::Commit:
            doCommit(idx);
            return;
        case OpKind::AbortAll:
            doAbortAll(idx);
            return;
        case OpKind::VidReset:
            doVidReset(idx);
            return;
        case OpKind::SlaConfirm:
            doSlaOp(idx, 0);
            return;
        case OpKind::SlaMismatch:
            doSlaOp(idx, op.value ? op.value : 1);
            return;
        }
    }

    Vid
    vidFor(const Op& op) const
    {
        if (op.kind == OpKind::NonSpecLoad ||
            op.kind == OpKind::NonSpecStore)
            return kNonSpecVid;
        return cells_[0]->sys.lcVid() + op.vidOff;
    }

    void
    doLoad(std::size_t idx, const Op& op, bool wrongPath)
    {
        const Vid vid = vidFor(op);
        if (vid > maxVid_)
            return; // outside the VID window; skip
        ++executed_;
        // Mirror the cells' policy consultation. A serialized access
        // (best-effort fallback lock held by this VID) has full
        // non-speculative semantics; wrong-path loads consult the lock
        // passively, exactly as CacheSystem::load does.
        bool serialized = false;
        if (vid != kNonSpecVid)
            serialized = wrongPath ? gold_.policy().serializes(vid)
                                   : gold_.beginSpecAccess(vid);
        const bool ltdAbort = !serialized && !wrongPath &&
            vid != kNonSpecVid &&
            gold_.limitedSetWouldAbort(op.addr, vid);
        const Vid effVid = serialized ? kNonSpecVid : vid;
        std::uint64_t want = gold_.valueAt(op.addr, op.size, effVid);
        sim::AccessResult r;
        std::uint64_t gen = 0;
        bool capacity = false;
        if (!runAll(idx,
                    [&](Cell& c) {
                        return c.sys.load(op.core, op.addr, op.size, vid,
                                          wrongPath);
                    },
                    r, gen, capacity))
            return;
        if (ltdAbort) {
            // The limited-set predictor is deterministic: the cells
            // key the same decision off identically maintained line
            // sets, so the capacity abort is mandatory.
            if (gen == 0 || !capacity) {
                fail(idx, "golden predicted a limited-set capacity "
                          "abort (vid " + std::to_string(vid) +
                          "), load succeeded");
                return;
            }
            syncAbort(gen);
            return; // the abort consumed the access
        }
        if (gen != 0) {
            // Loads never violate a dependence; only environmental
            // (capacity) aborts are acceptable here.
            if (!acceptEnvAbort(idx, gen, capacity, "load"))
                return;
            if (r.aborted)
                return; // the flush consumed the access itself
            // The flush raced the access mid-flight (a victim fold
            // failed during allocation); the load then completed
            // against the post-abort state and became the first read
            // of the restarted transaction. Mirror it in the golden
            // model and re-derive the expected value post-flush.
            want = gold_.valueAt(op.addr, op.size, effVid);
        }
        if (r.value != want) {
            fail(idx, "load value " + hex(r.value) +
                          " != golden " + hex(want) + " (vid " +
                          std::to_string(vid) +
                          (serialized ? ", serialized)" : ")"));
            return;
        }
        gold_.applyLoad(op.addr, effVid, wrongPath);
        if (r.needSla && !wrongPath && vid != kNonSpecVid &&
            cfg_.slaEnabled) {
            pending_.push_back(
                {op.core, {op.addr, vid, r.value, op.size}});
        }
    }

    void
    doStore(std::size_t idx, const Op& op)
    {
        const Vid vid = vidFor(op);
        if (vid > maxVid_)
            return;
        ++executed_;
        const bool serialized =
            vid != kNonSpecVid && gold_.beginSpecAccess(vid);
        const bool ltdAbort = !serialized && vid != kNonSpecVid &&
            gold_.limitedSetWouldAbort(op.addr, vid);
        const Vid effVid = serialized ? kNonSpecVid : vid;
        const bool predictAbort =
            !ltdAbort && gold_.storeAborts(op.addr, effVid);
        sim::AccessResult r;
        std::uint64_t gen = 0;
        bool capacity = false;
        if (!runAll(idx,
                    [&](Cell& c) {
                        return c.sys.store(op.core, op.addr, op.value,
                                           op.size, vid);
                    },
                    r, gen, capacity))
            return;
        if (ltdAbort) {
            if (gen == 0 || !capacity) {
                fail(idx, "golden predicted a limited-set capacity "
                          "abort (vid " + std::to_string(vid) +
                          "), store succeeded");
                return;
            }
            syncAbort(gen);
            return; // the abort consumed the store
        }
        if (gen != 0) {
            if (!capacity) {
                // A dependence abort: legal only if predicted. It
                // consumes a speculative store; a serialized
                // (fallback-holder) store retries internally after the
                // flush it raised and always completes — fold it into
                // the committed image below.
                if (!predictAbort) {
                    fail(idx, "store: abort not predicted by golden "
                              "model and no capacity abort recorded");
                    return;
                }
                syncAbort(gen);
                if (!serialized)
                    return;
            } else {
                // Environmental flush. If the store itself was
                // consumed, nothing was recorded. Otherwise it
                // completed against the post-abort state (where any
                // predicted dependence is gone too) — mirror it in the
                // golden model below.
                syncAbort(gen);
                if (r.aborted)
                    return;
            }
        } else if (predictAbort) {
            fail(idx, "golden predicted a dependence abort "
                      "(vid " + std::to_string(vid) +
                      (serialized ? ", serialized" : "") +
                      "), store succeeded");
            return;
        }
        gold_.applyStore(op.addr, op.value & sizeMask(op.size), op.size,
                         effVid);
    }

    /**
     * Confirms one pending SLA across cells. @p perturb != 0 models a
     * value-check mismatch (§5.1): the acknowledged value is skewed
     * before the cache re-verifies it. Returns false if the run
     * diverged *or* an abort consumed the speculative state (callers
     * drain-then-commit must skip the commit).
     */
    bool
    confirm(std::size_t idx, PendingSla p, std::uint64_t perturb)
    {
        SlaEntry e = p.e;
        if (perturb)
            e.value = (e.value + perturb) & sizeMask(e.size);
        const std::uint64_t want =
            gold_.valueAt(e.addr, e.size, e.vid);
        const bool predictMismatch = want != e.value;
        ++executed_;

        bool ok0 = false;
        std::uint64_t gen0 = 0, cap0 = 0;
        for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
            Cell& c = *cells_[ci];
            const std::uint64_t g = c.sys.abortGen();
            const std::uint64_t cap = c.sys.stats().capacityAborts;
            bool ok;
            try {
                ok = c.sys.slaConfirm(p.core, e);
            } catch (const std::exception& ex) {
                fail(idx, std::string(c.name) + " threw: " + ex.what());
                return false;
            }
            const std::uint64_t gd = c.sys.abortGen() - g;
            const std::uint64_t cd =
                c.sys.stats().capacityAborts - cap;
            if (ci == 0) {
                ok0 = ok;
                gen0 = gd;
                cap0 = cd;
            } else if (ok != ok0 || gd != gen0 || cd != cap0) {
                fail(idx, std::string("slaConfirm disagreement vs ") +
                              c.name + ": ok " + std::to_string(ok0) +
                              "/" + std::to_string(ok));
                return false;
            }
        }
        if (gen0 != 0) {
            if (predictMismatch || cap0 != 0) {
                syncAbort(gen0);
                return false; // state flushed; not a divergence
            }
            fail(idx, "slaConfirm aborted but golden predicted a "
                      "matching value " + hex(want));
            return false;
        }
        if (predictMismatch) {
            fail(idx, "golden predicted SLA mismatch (" + hex(want) +
                          " != acked " + hex(e.value) +
                          "), confirm succeeded");
            return false;
        }
        if (!ok0) {
            fail(idx, "slaConfirm returned false without aborting");
            return false;
        }
        gold_.applyConfirm(e.addr, e.vid);
        return true;
    }

    void
    doSlaOp(std::size_t idx, std::uint64_t perturb)
    {
        if (pending_.empty())
            return;
        PendingSla p = pending_.front();
        pending_.erase(pending_.begin());
        confirm(idx, p, perturb);
    }

    void
    doCommit(std::size_t idx)
    {
        const Vid v = cells_[0]->sys.lcVid() + 1;
        if (v > maxVid_)
            return; // window exhausted; a VidReset op must run first
        // Branch resolution precedes commit: drain this VID's pending
        // acknowledgments (the runtime's SlaUnit::drain()).
        for (std::size_t i = 0; i < pending_.size();) {
            if (pending_[i].e.vid != v) {
                ++i;
                continue;
            }
            PendingSla p = pending_[i];
            pending_.erase(pending_.begin() +
                           static_cast<std::ptrdiff_t>(i));
            if (!confirm(idx, p, 0))
                return; // diverged, or an abort flushed the VID
        }
        ++executed_;
        // Maximal validation sets (Figure 9): all cells and the golden
        // model must agree on the committing VID's R/W sets.
        gold_.readSet(v, wantR_);
        gold_.writeSet(v, wantW_);
        for (auto& c : cells_) {
            c->sys.readSetOf(v, gotR_);
            c->sys.writeSetOf(v, gotW_);
            if (gotR_ != wantR_ || gotW_ != wantW_) {
                fail(idx, std::string("R/W set mismatch vs golden at "
                                      "commit of VID ") +
                              std::to_string(v) + " on " + c->name +
                              " (R " + std::to_string(gotR_.size()) +
                              "/" + std::to_string(wantR_.size()) +
                              " W " + std::to_string(gotW_.size()) +
                              "/" + std::to_string(wantW_.size()) +
                              " lines)");
                return;
            }
        }
        for (auto& c : cells_) {
            try {
                c->sys.commit(v);
            } catch (const std::exception& ex) {
                fail(idx,
                     std::string(c->name) + " threw: " + ex.what());
                return;
            }
        }
        gold_.commit(v);
    }

    void
    doAbortAll(std::size_t idx)
    {
        ++executed_;
        for (auto& c : cells_) {
            try {
                c->sys.abortAll();
            } catch (const std::exception& ex) {
                fail(idx,
                     std::string(c->name) + " threw: " + ex.what());
                return;
            }
        }
        syncAbort();
    }

    void
    doVidReset(std::size_t idx)
    {
        if (!gold_.vidResetLegal())
            return; // transactions outstanding (§4.6); skip
        ++executed_;
        for (auto& c : cells_) {
            try {
                c->sys.vidReset();
            } catch (const std::exception& ex) {
                fail(idx,
                     std::string(c->name) + " threw: " + ex.what());
                return;
            }
        }
        gold_.vidReset();
        pending_.clear();
    }

    // --- checks ------------------------------------------------------

    void
    checkInvariants(std::size_t idx)
    {
        for (auto& c : cells_) {
            try {
                c->sys.checkInvariants();
            } catch (const std::exception& ex) {
                fail(idx, std::string("checkInvariants failed on ") +
                              c->name + ": " + ex.what());
                return;
            }
        }
    }

    void
    finalChecks()
    {
        const std::size_t end = static_cast<std::size_t>(-1);
        checkInvariants(path_.empty() ? end : path_.size() - 1);
        if (div_.found)
            return;
        // Quiesce: flush all speculative state, fold the committed
        // image, write everything back.
        for (auto& c : cells_) {
            try {
                c->sys.abortAll();
                c->sys.vidReset();
                c->sys.flushDirtyToMemory();
            } catch (const std::exception& ex) {
                fail(end, std::string("final quiesce threw on ") +
                              c->name + ": " + ex.what());
                return;
            }
        }
        gold_.abortAll();
        gold_.vidReset();
        // Golden vs. real committed image, word by word.
        gold_.touchedWords(words_);
        for (Addr w : words_) {
            const std::uint64_t want = gold_.valueAt(w, 8, 0);
            for (auto& c : cells_) {
                const std::uint64_t got = c->sys.memory().read(w, 8);
                if (got != want) {
                    fail(end, std::string("final memory mismatch at ") +
                                  hex(w) + " on " + c->name + ": " +
                                  hex(got) + " != golden " + hex(want));
                    return;
                }
            }
        }
        // Full image equality across cells (catches stray writes to
        // addresses the golden never tracked).
        image(*cells_[0], img0_);
        for (std::size_t ci = 1; ci < cells_.size(); ++ci) {
            image(*cells_[ci], img_);
            if (img_ != img0_) {
                fail(end,
                     std::string("final memory image differs: ") +
                         cells_[ci]->name + " vs " + cells_[0]->name);
                return;
            }
        }
    }

    /** @p c's non-zero memory lines, sorted by address, into @p out
     *  (reused scratch: equal vectors <=> equal images). */
    static void
    image(Cell& c, std::vector<std::pair<Addr, sim::LineData>>& out)
    {
        static const sim::LineData zero{};
        out.clear();
        c.sys.memory().forEachLine([&](Addr a, const sim::LineData& d) {
            if (d != zero)
                out.emplace_back(a, d);
        });
        std::sort(out.begin(), out.end(),
                  [](const auto& x, const auto& y) {
                      return x.first < y.first;
                  });
    }

    FuzzConfig cfg_;
    const unsigned group_;
    const std::vector<Op>& path_;
    std::vector<std::unique_ptr<Cell>> cells_;
    Vid maxVid_ = 63;
    // Per-run state.
    GoldenModel gold_;
    /** Outstanding SLAs, oldest first (a handful at most). */
    std::vector<PendingSla> pending_;
    std::uint64_t executed_ = 0;
    Divergence div_;
    /** Checkpoint slots, indexed by depth (nullptr: never saved since
     *  the last dropSaves()). They all live in arena_, so one run's
     *  checkpoints cost a few allocations, freed together. */
    std::optional<std::pmr::monotonic_buffer_resource> arena_;
    std::vector<Checkpoint*> saves_;
    // Scratch kept across runs so replays do not reallocate (words_:
    // the seeded words, then the golden's touched words; the rest: the
    // committing VID's golden and cell R/W sets).
    std::vector<Addr> words_;
    std::vector<Addr> wantR_, wantW_, gotR_, gotW_;
    std::vector<std::pair<Addr, sim::LineData>> img0_, img_;
};

CellMatrix::CellMatrix(const FuzzConfig& cfg, unsigned groupMask)
    : cfg_(cfg), groupMask_(groupMask)
{
    buildGroups();
}

CellMatrix::~CellMatrix() = default;

void
CellMatrix::buildGroups()
{
    groups_.clear();
    for (unsigned g : {unsigned(kGroupHmtx), unsigned(kGroupBtx),
                       unsigned(kGroupLtd)})
        if (groupMask_ & g)
            groups_.push_back(std::make_unique<Group>(cfg_, g, path_));
}

void
CellMatrix::retarget(const FuzzConfig& cfg)
{
    // Every cell config is checked before any cell is touched, so a
    // config the cells reject throws with the matrix unchanged.
    for (auto& g : groups_)
        g->validate(cfg);
    dropCheckpoints();
    const bool keep = std::all_of(groups_.begin(), groups_.end(),
                                  [&](const auto& g) { return g->fits(cfg); });
    cfg_ = cfg;
    if (!keep) {
        buildGroups();
        return;
    }
    for (auto& g : groups_)
        g->retarget(cfg_);
}

void
CellMatrix::start(const Schedule& program, const RunHooks* hooks)
{
    if (program.cfg != cfg_)
        throw std::invalid_argument(
            "CellMatrix: schedule config differs from the matrix's");
    path_.clear();
    for (auto& g : groups_)
        g->begin(program, hooks);
}

void
CellMatrix::begin(const Schedule& program, const RunHooks* hooks)
{
    start(program, hooks);
    dropCheckpoints();
}

void
CellMatrix::dropCheckpoints()
{
    for (auto& g : groups_)
        g->dropSaves();
}

void
CellMatrix::step(const Op& op)
{
    path_.push_back(op);
    // finish() reports no group after a diverged one, so those stop
    // stepping too.
    for (auto& g : groups_) {
        g->step();
        if (g->diverged())
            break;
    }
}

void
CellMatrix::save(std::size_t depth)
{
    if (depth != path_.size())
        throw std::logic_error("CellMatrix::save: depth " +
                               std::to_string(depth) + " but " +
                               std::to_string(path_.size()) +
                               " ops stepped");
    for (auto& g : groups_)
        g->save(depth);
}

void
CellMatrix::restore(std::size_t depth)
{
    if (depth > path_.size())
        throw std::logic_error("CellMatrix::restore: depth " +
                               std::to_string(depth) + " but " +
                               std::to_string(path_.size()) +
                               " ops stepped");
    for (const auto& g : groups_)
        if (!g->saved(depth))
            throw std::logic_error("CellMatrix::restore: slot " +
                                   std::to_string(depth) +
                                   " not saved since the checkpoints "
                                   "were last dropped");
    path_.resize(depth);
    for (auto& g : groups_)
        g->restore(depth);
}

Divergence
CellMatrix::finish(Coverage* cov)
{
    bool primary = true;
    cellsReported_ = 0;
    for (auto& g : groups_) {
        // The groups share no state: the run's divergence is the
        // first in group order, and no later group is checked (its
        // cells stopped stepping there).
        Divergence d = g->finish(cov, primary);
        primary = false;
        cellsReported_ += g->cells();
        if (d.found) {
            d.what = std::string(groupName(g->group())) + " group: " +
                d.what;
            return d;
        }
    }
    return {};
}

Divergence
CellMatrix::run(const Schedule& s, Coverage* cov, const RunHooks* hooks)
{
    start(s, hooks);
    for (const Op& op : s.ops)
        step(op);
    return finish(cov);
}

Divergence
runSchedule(const Schedule& s, Coverage* cov, unsigned groupMask,
            const RunHooks* hooks)
{
    return CellMatrix(s.cfg, groupMask).run(s, cov, hooks);
}

Schedule
shrinkSchedule(const Schedule& s, unsigned maxRuns, unsigned groupMask)
{
    // Every candidate keeps s.cfg: one matrix runs them all.
    CellMatrix m(s.cfg, groupMask);
    Schedule cur = s;
    if (!m.run(cur).found)
        return cur;
    unsigned runs = 1;
    std::size_t chunk = cur.ops.size() / 2;
    if (chunk == 0)
        chunk = 1;
    while (runs < maxRuns) {
        bool removedAny = false;
        for (std::size_t i = 0;
             i + chunk <= cur.ops.size() && runs < maxRuns;) {
            Schedule cand = cur;
            cand.ops.erase(
                cand.ops.begin() + static_cast<std::ptrdiff_t>(i),
                cand.ops.begin() + static_cast<std::ptrdiff_t>(i + chunk));
            ++runs;
            if (m.run(cand).found) {
                cur.ops = std::move(cand.ops);
                removedAny = true;
            } else {
                i += chunk;
            }
        }
        if (chunk == 1) {
            if (!removedAny)
                break;
        } else {
            chunk = chunk / 2 ? chunk / 2 : 1;
        }
    }
    return cur;
}

} // namespace hmtx::check
