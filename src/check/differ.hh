/**
 * @file
 * Differential execution of fuzz schedules: one schedule runs against
 * the GoldenModel and eight real CacheSystem cells in three groups —
 * the four full-HMTX cells ({SnoopBus, DirectoryFabric} × {lazy, eager
 * commit}), two best-effort cells ({bus, dir} with the retry/
 * fallback-lock policy), and two limited-set cells ({bus, dir}
 * tracking only the first K speculative lines per VID) — and every
 * architecturally visible outcome is compared:
 *
 *  - per-op: load values vs. the golden visibility rule, abort
 *    outcomes vs. the golden dependence rule, and value/aborted/
 *    needSla/l1Hit/lcVid/abortGen equality across cells;
 *  - per-commit: read/write validation sets vs. the golden sets;
 *  - periodically and at the end: checkInvariants() on every cell;
 *  - at the end: the flushed memory image vs. the golden committed
 *    image, and full image equality across cells.
 *
 * Capacity aborts (§5.4) are environmental — no timing-free model can
 * predict them — so a real abort the golden did not predict is
 * accepted iff the cells' capacityAborts counters moved, and the
 * golden resynchronizes via abortAll().
 */

#ifndef HMTX_CHECK_DIFFER_HH
#define HMTX_CHECK_DIFFER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "check/schedule.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace hmtx::sim
{
class CacheSystem;
}

namespace hmtx::check
{

/** Outcome of one differential run. */
struct Divergence
{
    bool found = false;
    /** Index of the diverging op, or SIZE_MAX for end-of-run checks. */
    std::size_t opIndex = static_cast<std::size_t>(-1);
    std::string what;
};

/** What a batch of runs exercised, summed over its schedules. */
struct Coverage
{
    std::uint64_t schedules = 0;
    std::uint64_t ops = 0;
    /** Cell 0 of the first group in the mask, so a multi-group run
     *  counts each schedule once. */
    sim::SysStats sys;
    /** Cell 0 of every group: each mode's counters stay zero outside
     *  its own group. */
    TxModeStats tx;

    /** Adds @p o's counts (field tables: sums and high-water maxima). */
    void
    merge(const Coverage& o)
    {
        schedules += o.schedules;
        ops += o.ops;
        accumulate(sys, o.sys);
        accumulate(tx, o.tx);
    }

    bool operator==(const Coverage&) const = default;
};

/**
 * Cell groups of the differential matrix. Each group runs the whole
 * schedule independently against its own golden model: cells of
 * different commit modes diverge architecturally by design, so
 * cross-cell comparison is only meaningful within a group.
 *
 *  - kGroupHmtx: the four full-HMTX cells — {bus, dir} × {lazy, eager};
 *  - kGroupBtx: {bus, dir} best-effort cells (fallback serialization);
 *  - kGroupLtd: {bus, dir} limited-set cells (first-K-lines tracking).
 */
enum GroupSet : unsigned
{
    kGroupHmtx = 1u << 0,
    kGroupBtx = 1u << 1,
    kGroupLtd = 1u << 2,
    kGroupAll = kGroupHmtx | kGroupBtx | kGroupLtd,
};

/** Cells of the full-HMTX group (the btx and ltd groups have two). */
constexpr int kHmtxCells = 4;

/**
 * MachineConfig of full-HMTX cell @p i (0..kHmtxCells-1: bus/lazy,
 * bus/eager, dir/lazy, dir/eager) for fuzz config @p c.
 */
sim::MachineConfig cellConfig(const FuzzConfig& c, int i);

/** MachineConfig of the @p f cell of mode group @p g (kGroupBtx or
 *  kGroupLtd) for fuzz config @p c. */
sim::MachineConfig modeCellConfig(const FuzzConfig& c, unsigned g,
                                  sim::Fabric f);

/**
 * Optional per-run instrumentation. The model checker
 * (check/explorer.hh) uses onCell to install a DeliveryChooser on
 * each cell's fabric before the schedule replays; plain fuzzing
 * passes no hooks.
 */
struct RunHooks
{
    /**
     * Called for every cell of a run, after the cell was reset and
     * before any op runs — once per run of the cell, not once per
     * constructed cell. A reset uninstalls any DeliveryChooser, so a
     * hook that installs one must do so on every run.
     */
    std::function<void(const char* cellName, sim::CacheSystem&)> onCell;
};

/**
 * The differential matrix of one FuzzConfig: the cells of every group
 * in a group mask, built once and reset (CacheSystem::reset()) at the
 * start of each run, so a caller replaying many schedules of the same
 * config pays for building them once. retarget() moves the matrix to
 * another config, resetting the cells in place when the machine
 * structure (cores, cache geometry) is unchanged, so a caller whose
 * configs differ only in their knobs builds the cells once too. A run
 * on a reused or retargeted matrix returns exactly what a run on a
 * fresh one does.
 *
 * A run is begin(), one step() per op, then finish(); run() is that
 * sequence over a whole schedule. Between steps, save() checkpoints
 * the whole matrix (cells, golden models, pending SLAs, progress and
 * divergence) and restore() returns to a checkpoint, so a caller
 * replaying many schedules that share prefixes (the model checker's
 * DFS, check/explorer.hh) steps each shared prefix once. A run's
 * checkpoints share one arena per group; begin(), retarget() and
 * dropCheckpoints() free them.
 */
class CellMatrix
{
  public:
    explicit CellMatrix(const FuzzConfig& cfg,
                        unsigned groupMask = kGroupAll);
    ~CellMatrix();
    CellMatrix(const CellMatrix&) = delete;
    CellMatrix& operator=(const CellMatrix&) = delete;

    /**
     * Runs @p s against the golden model and the matrix's groups,
     * stopping each group at its first divergence, and reports the
     * first divergence in hmtx, btx, ltd order. Throws
     * std::invalid_argument if s.cfg differs from the matrix's config.
     */
    Divergence run(const Schedule& s, Coverage* cov = nullptr,
                   const RunHooks* hooks = nullptr);

    /**
     * Makes the matrix equal to CellMatrix(@p cfg, groupMask()): the
     * cells are rebuilt if @p cfg changes the structure, and are
     * otherwise reset to @p cfg in place (CacheSystem::reset(const
     * MachineConfig&)) by the next begin() or run(), which reset
     * every cell anyway. Every checkpoint is freed. Throws
     * std::invalid_argument, with the matrix unchanged, if a cell
     * rejects its config.
     */
    void retarget(const FuzzConfig& cfg);

    /**
     * Frees every checkpoint: none can be restored until saved again.
     * begin() and retarget() do this too; a caller keeping the matrix
     * idle between uses calls it so that the matrix holds only its
     * cells meanwhile.
     */
    void dropCheckpoints();

    /** The groups the matrix was built with. */
    unsigned groupMask() const { return groupMask_; }

    /**
     * Starts a run of a schedule whose ops are a reordering of
     * @p program's: resets every cell (then calls hooks->onCell on
     * it), builds each group's golden model, and seeds memory from the
     * program's word set. Frees every checkpoint, so none saved for an
     * earlier program can be restored. Throws
     * std::invalid_argument if program.cfg differs from the matrix's
     * config.
     */
    void begin(const Schedule& program, const RunHooks* hooks = nullptr);

    /** Runs the next op, with the self-check every 32 ops, on each
     *  group in hmtx, btx, ltd order until one has diverged (later
     *  groups stop: finish() never reports them). */
    void step(const Op& op);

    /**
     * Checkpoints the run into slot @p depth, which must equal the
     * number of ops stepped since begin(). A slot saved again reuses
     * its storage.
     */
    void save(std::size_t depth);

    /**
     * Returns the run to what save(@p depth) recorded, whatever ran
     * since (another run() included: unlike begin(), run() keeps the
     * checkpoints). The checkpoint keeps no copy of the ops: the first
     * @p depth ops of the latest run must be the ones it saw, as they
     * are when a depth-first search restores an ancestor of its
     * current prefix (or reruns a leaf below it). Throws
     * std::logic_error if fewer than @p depth ops ran, or if slot
     * @p depth was not saved since the last begin(), retarget() or
     * dropCheckpoints().
     */
    void restore(std::size_t depth);

    /**
     * Ends the run: the end-of-run checks (self-check, quiesce,
     * memory images) on every group in hmtx, btx, ltd order until the
     * first that diverged, whose divergence is returned; @p cov sums
     * the groups checked. The cells are left quiesced: only begin(),
     * restore() or run() may follow.
     */
    Divergence finish(Coverage* cov = nullptr);

    /**
     * Cells the last finish() reported on, counted in the order
     * begin() hooks them: every cell after a clean run, else the cells
     * of the groups up to and including the one that diverged.
     */
    std::size_t cellsReported() const { return cellsReported_; }

    /** The ops stepped since begin(), less those a restore() undid:
     *  the interleaving the cells are at. */
    const std::vector<Op>& path() const { return path_; }

  private:
    class Group;
    /** (Re)builds the groups of groupMask_ for cfg_. */
    void buildGroups();
    /** begin() without dropping the checkpoints (run()'s start). */
    void start(const Schedule& program, const RunHooks* hooks);

    FuzzConfig cfg_;
    unsigned groupMask_;
    /** The ops stepped since begin() (the groups read them to name
     *  a divergence). */
    std::vector<Op> path_;
    std::vector<std::unique_ptr<Group>> groups_;
    std::size_t cellsReported_ = 0;
};

/** Runs @p s against the golden model and the selected cell groups:
 *  the one-shot use of a CellMatrix. */
Divergence runSchedule(const Schedule& s, Coverage* cov = nullptr,
                       unsigned groupMask = kGroupAll,
                       const RunHooks* hooks = nullptr);

/**
 * ddmin-style shrink: repeatedly deletes op chunks while the schedule
 * keeps diverging (any divergence counts — the minimal schedule may
 * surface the same bug through a different check). Runs at most
 * @p maxRuns differential executions.
 */
Schedule shrinkSchedule(const Schedule& s, unsigned maxRuns = 4000,
                        unsigned groupMask = kGroupAll);

} // namespace hmtx::check

#endif // HMTX_CHECK_DIFFER_HH
