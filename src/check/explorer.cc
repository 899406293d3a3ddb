/**
 * @file
 * Sleep-set DFS over the interleavings of a small program, stepped
 * incrementally through the differential runner (DESIGN.md §14).
 */

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "check/explorer.hh"
#include "sim/cache_system.hh"
#include "sim/rng.hh"

namespace hmtx::check
{

namespace
{

/**
 * Replays forced delivery decisions and records how many decision
 * points the fabric consulted. Each matrix cell gets its own instance
 * (its own decision sequence); all instances of one replay share the
 * same forced vector, and decisions beyond it take the FIFO default.
 */
class RecordingChooser final : public sim::DeliveryChooser
{
  public:
    /** Starts a replay: forced vector @p forced, @p decisions made
     *  so far. */
    void
    restart(const std::vector<unsigned>& forced,
            std::size_t decisions = 0)
    {
        forced_ = &forced;
        count_ = decisions;
    }

    unsigned
    choose(Addr, unsigned n) override
    {
        const std::size_t i = count_++;
        if (i < forced_->size())
            return std::min((*forced_)[i], n - 1);
        return 0;
    }

    std::size_t decisions() const { return count_; }

  private:
    const std::vector<unsigned>* forced_ = nullptr;
    std::size_t count_ = 0;
};

/** One chooser per cell, installed by hooks.onCell in cell order. */
class ChooserSet
{
  public:
    ChooserSet()
    {
        hooks.onCell = [this](const char*, sim::CacheSystem& sys) {
            if (installed_ == choosers_.size())
                choosers_.push_back(std::make_unique<RecordingChooser>());
            RecordingChooser& ch = *choosers_[installed_++];
            ch.restart(*forced_);
            sys.interconnect().setDeliveryChooser(&ch);
        };
    }
    ChooserSet(const ChooserSet&) = delete;
    ChooserSet& operator=(const ChooserSet&) = delete;

    /** Call before a run: the choosers hooks installs force
     *  @p forced, which must outlive the run. */
    void
    arm(const std::vector<unsigned>& forced)
    {
        forced_ = &forced;
        installed_ = 0;
    }

    /** Most decisions any of the first @p cells choosers made. */
    std::size_t
    maxDecisions(std::size_t cells) const
    {
        std::size_t m = 0;
        for (std::size_t i = 0; i < std::min(cells, installed_); ++i)
            m = std::max(m, choosers_[i]->decisions());
        return m;
    }

    /** Each installed chooser's decision count, into @p out. */
    void
    saveCounts(std::vector<std::size_t>& out) const
    {
        out.resize(installed_);
        for (std::size_t i = 0; i < installed_; ++i)
            out[i] = choosers_[i]->decisions();
    }

    /** Rewinds the choosers to saveCounts()' @p in. */
    void
    restoreCounts(const std::vector<std::size_t>& in)
    {
        for (std::size_t i = 0; i < in.size(); ++i)
            choosers_[i]->restart(*forced_, in[i]);
    }

    RunHooks hooks;

  private:
    std::vector<std::unique_ptr<RecordingChooser>> choosers_;
    std::size_t installed_ = 0;
    const std::vector<unsigned>* forced_ = nullptr;
};

/** Most ops a branch node re-steps to rebuild its prefix from its
 *  nearest checkpoint (DESIGN.md §14: why two). */
constexpr std::size_t kMaxReSteps = 2;

/**
 * The sleep-set DFS. The matrix steps each op once per distinct
 * prefix, plus the re-steps: the root and every branch node more than
 * kMaxReSteps ops below its nearest checkpointed ancestor checkpoint
 * the matrix (CellMatrix::save), and before each child after the
 * first a branch node restores its own checkpoint or that ancestor's,
 * then steps the ops between them again. Every leaf runs the
 * end-of-run checks (CellMatrix::finish) on the interleaving it ends.
 */
class Explorer
{
  public:
    /** @p prog must fit its machine (explore() checks); @p matrix
     *  must be built for prog.cfg and cfg.groupMask. */
    Explorer(const Schedule& prog, const ExploreConfig& cfg,
             CellMatrix& matrix)
        : prog_(prog), cfg_(cfg), matrix_(matrix)
    {
        threads_.resize(prog.cfg.numCores);
        for (const Op& op : prog.ops)
            threads_[op.core].push_back(op);
        pos_.assign(threads_.size(), 0);
        leaf_.cfg = prog.cfg;
        leaf_.ops.reserve(prog.ops.size());
        for (const Op& op : prog.ops)
            hasSlaOps_ = hasSlaOps_ || op.kind == OpKind::SlaConfirm ||
                op.kind == OpKind::SlaMismatch;
    }

    ExploreResult
    run()
    {
        // Delivery-order exploration records every interleaving's
        // decision points: the DFS runs under all-FIFO choosers.
        base_.arm(fifo_);
        matrix_.begin(prog_,
                      cfg_.deliveryPoints != 0 ? &base_.hooks : nullptr);
        dfs(0, 0, 0);
        return std::move(res_);
    }

  private:
    static std::uint64_t bit(unsigned c) { return std::uint64_t{1} << c; }

    /** Explores every extension of the current prefix (of @p depth
     *  ops); @p sleep holds the sleeping cores, and @p anc is the
     *  depth of the nearest checkpointed ancestor. */
    void
    dfs(std::uint64_t sleep, std::size_t depth, std::size_t anc)
    {
        if (stop_)
            return;
        std::uint64_t enabled = 0;
        for (unsigned c = 0; c < threads_.size(); ++c)
            if (pos_[c] < threads_[c].size())
                enabled |= bit(c);
        if (enabled == 0) {
            runLeaf();
            return;
        }
        // Godefroid sleep sets: a core still asleep here heads a
        // subtree whose every trace is already covered through an
        // explored sibling; waking happens below, when an executed op
        // is *dependent* with the sleeper's next op.
        const std::uint64_t awake = cfg_.prune ? enabled & ~sleep : enabled;
        if (takesCheckpoint(depth, anc,
                            static_cast<unsigned>(std::popcount(awake)))) {
            save(depth);
            anc = depth;
        }
        bool first = true;
        std::uint64_t sl = sleep;
        for (std::uint64_t m = enabled; m != 0; m &= m - 1) {
            const auto c = static_cast<unsigned>(std::countr_zero(m));
            if (cfg_.prune && (sl & bit(c))) {
                ++res_.stats.pruned;
                continue;
            }
            if (!first)
                rewind(anc, depth);
            first = false;
            const Op& next = threads_[c][pos_[c]];
            std::uint64_t childSleep = 0;
            if (cfg_.prune)
                for (std::uint64_t d = sl & ~bit(c); d != 0; d &= d - 1) {
                    const auto o = static_cast<unsigned>(std::countr_zero(d));
                    if (pos_[o] < threads_[o].size() &&
                        opsIndependent(threads_[o][pos_[o]], next,
                                       hasSlaOps_, cfg_.groupMask))
                        childSleep |= bit(o);
                }
            leaf_.ops.push_back(next);
            matrix_.step(next);
            ++pos_[c];
            dfs(childSleep, depth + 1, anc);
            --pos_[c];
            leaf_.ops.pop_back();
            if (stop_)
                return;
            sl |= bit(c);
        }
    }

    /** Checkpoints the matrix (and the choosers' decision counts) at
     *  branch point @p depth. */
    void
    save(std::size_t depth)
    {
        ++res_.stats.checkpoints;
        matrix_.save(depth);
        if (cfg_.deliveryPoints == 0)
            return;
        if (chooserCounts_.size() <= depth)
            chooserCounts_.resize(depth + 1);
        base_.saveCounts(chooserCounts_[depth]);
    }

    /** Returns the matrix to the current prefix's first @p depth ops:
     *  restores the checkpoint at @p anc, an ancestor of the prefix
     *  (so its slot still holds what it saved), and steps the ops
     *  after it again, which also records the choosers' decisions
     *  again. */
    void
    rewind(std::size_t anc, std::size_t depth)
    {
        matrix_.restore(anc);
        if (cfg_.deliveryPoints != 0)
            base_.restoreCounts(chooserCounts_[anc]);
        for (std::size_t i = anc; i < depth; ++i)
            matrix_.step(leaf_.ops[i]);
        res_.stats.reSteps += depth - anc;
    }

    void
    runLeaf()
    {
        if (res_.stats.explored >= cfg_.maxInterleavings) {
            res_.stats.budgetExhausted = true;
            stop_ = true;
            return;
        }
        ++res_.stats.explored;
        // The checks below judge whatever the cells stepped; a wrong
        // rewind() would have them agree with the golden model on an
        // interleaving other than the leaf's.
        if (matrix_.path() != leaf_.ops)
            throw std::logic_error("explore: the cells stepped another "
                                   "interleaving than the DFS leaf");
        Coverage cov;
        account(matrix_.finish(&cov), cov);
        if (cfg_.deliveryPoints == 0)
            return;
        // Branch over the first deliveryPoints directory delivery
        // decisions: the leaf itself ran all-FIFO and reports how
        // many points exist; every deeper prefix replays the leaf in
        // full with one decision flipped to "overtake". Each replay
        // covers the all-FIFO extension of its forced prefix, so this
        // visits every choice vector of the bounded tree exactly once.
        const std::size_t seen = base_.maxDecisions(matrix_.cellsReported());
        res_.stats.deliveryPointsSeen += seen;
        deliveryDfs({}, seen);
    }

    void
    deliveryDfs(const std::vector<unsigned>& forced, std::size_t seen)
    {
        const std::size_t depth =
            std::min<std::size_t>(seen, cfg_.deliveryPoints);
        for (std::size_t i = forced.size(); i < depth && !stop_; ++i) {
            std::vector<unsigned> f2 = forced;
            f2.resize(i + 1, 0);
            f2[i] = 1;
            ++res_.stats.deliveryRuns;
            const std::size_t subSeen = replay(f2);
            if (stop_)
                return;
            deliveryDfs(f2, subSeen);
        }
    }

    /** Replays the current leaf_ in full under choosers forcing
     *  @p forced; returns the decision points they met. */
    std::size_t
    replay(const std::vector<unsigned>& forced)
    {
        replays_.arm(forced);
        Coverage cov;
        Divergence d = matrix_.run(leaf_, &cov, &replays_.hooks);
        account(d, cov);
        return replays_.maxDecisions(matrix_.cellsReported());
    }

    /** Folds one finished run into the result: the environmental-
     *  abort tripwire, and the first divergence (which stops the
     *  exploration). */
    void
    account(const Divergence& d, const Coverage& cov)
    {
        // Environmental-abort tripwire for the pruning argument: in a
        // limited-set-only pass the mandatory K-th-line aborts are
        // predicted (and accounted by the same cell), so only the
        // excess is environmental.
        std::uint64_t env = cov.sys.capacityAborts;
        if (cfg_.groupMask == kGroupLtd)
            env = env > cov.tx.limitedSetAborts
                ? env - cov.tx.limitedSetAborts
                : 0;
        if (env != 0)
            ++res_.stats.envAborts;
        if (d.found) {
            res_.div = d;
            res_.witness = leaf_;
            stop_ = true;
        }
    }

    const Schedule& prog_;
    const ExploreConfig& cfg_;
    std::vector<std::vector<Op>> threads_;
    std::vector<unsigned> pos_;
    /** The interleaving under construction: the DFS pushes and pops
     *  its ops, and at a leaf it is the complete schedule. */
    Schedule leaf_;
    /** The DFS's own choosers force nothing (all-FIFO). */
    const std::vector<unsigned> fifo_;
    /** Choosers of the DFS run and of the forced full replays. The
     *  matrix outlives them: its cells keep pointers to them, which
     *  the next retarget() or begin() resets unread (explore() frees
     *  the checkpoints, which hold them too, before it returns). */
    ChooserSet base_;
    ChooserSet replays_;
    /** base_'s decision counts at each checkpointed depth. */
    std::vector<std::vector<std::size_t>> chooserCounts_;
    /** One matrix for every run of this exploration. */
    CellMatrix& matrix_;
    bool hasSlaOps_ = false;
    bool stop_ = false;
    ExploreResult res_;
};

} // namespace

bool
takesCheckpoint(std::size_t depth, std::size_t anc, unsigned children)
{
    return depth == 0 || (children >= 2 && depth - anc > kMaxReSteps);
}

bool
opsIndependent(const Op& a, const Op& b, bool hasSlaOps,
               unsigned groupMask)
{
    if (a.core == b.core)
        return false; // program order is binding
    // Bulk/global ops (commit, abort, VID reset, SLA acks) touch the
    // whole machine; never reorder around them.
    if (!isMemoryAccess(a.kind) || !isMemoryAccess(b.kind))
        return false;
    // Same line: the §4.1 tags, marks, and versions live per line.
    if (lineAddr(a.addr) == lineAddr(b.addr))
        return false;
    // Stores of either kind can raise a *global* abort (a §4.3
    // dependence violation, or non-speculative-under-speculative),
    // whose flush is visible on every other line.
    if (a.kind == OpKind::Store || a.kind == OpKind::NonSpecStore ||
        b.kind == OpKind::Store || b.kind == OpKind::NonSpecStore)
        return false;
    const bool aCp = a.kind == OpKind::Load; // correct-path spec load
    const bool bCp = b.kind == OpKind::Load;
    // Limited-set cells: a correct-path access past the K bound
    // raises a mandatory global capacity abort, so even a load's
    // order is visible machine-wide.
    if ((groupMask & kGroupLtd) && (aCp || bCp))
        return false;
    // Best-effort cells: every correct-path spec access advances the
    // fallback state machine (which access of LC+1 takes the lock).
    if ((groupMask & kGroupBtx) && aCp && bCp)
        return false;
    // Two correct-path loads may both enqueue deferred SLAs; explicit
    // SLA ops consume that queue in FIFO order.
    if (hasSlaOps && aCp && bCp)
        return false;
    // What remains: loads (spec, non-spec, wrong-path) to different
    // lines — per-line marks, per-word values, no policy coupling.
    return true;
}

ExploreResult
explore(const Schedule& program, const ExploreConfig& cfg)
{
    // Checked before any cell is built.
    const unsigned cores = program.cfg.numCores;
    if (cores > 64)
        throw std::invalid_argument("explore: " + std::to_string(cores) +
                                    " cores; sleep sets hold at most 64");
    for (const Op& op : program.ops)
        if (op.core >= cores)
            throw std::invalid_argument(
                "explore: op core " + std::to_string(op.core) +
                " outside the " + std::to_string(cores) +
                "-core machine");
    // One matrix per thread, kept across explorations: programs share
    // their machine structure and differ only in the knobs a retarget
    // resets in place, so the cells are not rebuilt per program. The
    // checkpoints (about 100 KB for a 6-op program) are freed after
    // each exploration: kept between calls, pieces of them sit amid
    // the caller's own allocations, which then fragment around them.
    thread_local std::optional<CellMatrix> matrix;
    if (matrix && matrix->groupMask() == cfg.groupMask)
        matrix->retarget(program.cfg);
    else
        matrix.emplace(program.cfg, cfg.groupMask);
    ExploreResult r = Explorer(program, cfg, *matrix).run();
    matrix->dropCheckpoints();
    return r;
}

Schedule
generateProgram(std::uint64_t seed, unsigned cores, unsigned numOps)
{
    sim::Rng rng(seed * 0x9e3779b97f4a7c15ull +
                 0x94d049bb133111ebull);
    Schedule s;
    s.isProgram = true;
    FuzzConfig& c = s.cfg;
    c.numCores = std::max(2u, cores);
    c.l1KB = 1;
    c.l1Assoc = 2;
    c.l2KB = 8;
    c.l2Assoc = 8;
    // Mostly the paper's m=6 window; sometimes 4 bits so short
    // programs still meet the §4.6 wraparound machinery.
    c.vidBits = rng.chance(0.25) ? 4 : 6;
    c.unboundedSpecSets = false;
    c.slaEnabled = !rng.chance(0.25);
    c.btxRetries = 1 + static_cast<unsigned>(rng.range(2));
    c.btxThreshold = 0;
    // Tiny K so the K-th-line boundary is inside a 4-8 op program.
    c.limitedK = 1 + static_cast<unsigned>(rng.range(3));
    (void)rng.chance(0.5); // a removed knob's draw: seeds keep their programs
    // The address pool is the opposite of the fuzzer's: 2-3 lines in
    // *distinct* L1 and L2 sets, far under every capacity bound, so
    // no environmental capacity abort can fire and the sleep-set
    // argument (§14) holds unconditionally.
    const unsigned nLines = 2 + (rng.chance(0.35) ? 1u : 0u);
    std::vector<Addr> pool;
    for (unsigned i = 0; i < nLines; ++i)
        pool.push_back(0x40000 + i * kLineBytes);
    auto pickAddr = [&] {
        Addr line = pool[rng.range(pool.size())];
        return line + (rng.chance(0.3) ? 8 : 0);
    };
    auto pickVidOff = [&] {
        return static_cast<std::uint8_t>(1 + rng.range(2) +
                                         (rng.chance(0.2) ? 1 : 0));
    };
    s.ops.reserve(numOps);
    while (s.ops.size() < numOps) {
        Op op;
        op.core = static_cast<std::uint8_t>(rng.range(c.numCores));
        op.vidOff = pickVidOff();
        op.size = 8;
        const std::uint64_t roll = rng.range(100);
        if (roll < 34) {
            op.kind = OpKind::Load;
            op.addr = pickAddr();
        } else if (roll < 60) {
            op.kind = OpKind::Store;
            op.addr = pickAddr();
            op.value = rng.next();
        } else if (roll < 74) {
            op.kind = OpKind::Commit;
        } else if (roll < 82) {
            op.kind = OpKind::NonSpecLoad;
            op.addr = pickAddr();
        } else if (roll < 88) {
            op.kind = OpKind::NonSpecStore;
            op.addr = pickAddr();
            op.value = rng.next();
        } else if (roll < 94) {
            op.kind = OpKind::WrongPathLoad;
            op.addr = pickAddr();
        } else if (roll < 97) {
            op.kind = OpKind::SlaConfirm;
        } else if (roll < 98) {
            op.kind = OpKind::SlaMismatch;
            op.value = 1 + rng.range(0xff);
        } else if (roll < 99) {
            op.kind = OpKind::AbortAll;
        } else {
            op.kind = OpKind::VidReset;
        }
        s.ops.push_back(op);
    }
    return s;
}

} // namespace hmtx::check
