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
 * passes no hooks and runs exactly as before.
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
 * in a group mask, built once and reset (CacheSystem::reset()) before
 * each run, so a caller replaying many schedules of the same config
 * pays for building them once. A run on a reused matrix returns
 * exactly what a run on a fresh one does.
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
     * Runs @p s against the golden model and the matrix's groups, in
     * hmtx, btx, ltd order, stopping at the first divergence. Throws
     * std::invalid_argument if s.cfg differs from the matrix's config.
     */
    Divergence run(const Schedule& s, Coverage* cov = nullptr,
                   const RunHooks* hooks = nullptr);

  private:
    class Group;
    FuzzConfig cfg_;
    std::vector<std::unique_ptr<Group>> groups_;
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
