/**
 * @file
 * CacheSystem::reset() and EventQueue::reset() contract: a cell that
 * ran some schedule A and was then reset must run any schedule B
 * exactly as a freshly constructed cell does — every AccessResult
 * (latency included), every stats struct, lcVid, abortGen, the queue
 * tick and the memory image. Covers all 8 differential-matrix cell
 * configs (check::cellConfig / check::modeCellConfig), with A left
 * in the states a reset must undo: mid-abort, a DeliveryChooser
 * installed, spilled lines in the overflow table, wrong-path shadow
 * marks, and events still pending on the queue. reset(cfg) to another
 * config of the same machine structure (VID width, SLAs, best-effort
 * retries, limited-set K) must run B as a fresh cell of that config
 * does; a structure change must throw and leave the cell as it was.
 *
 * The same comparison pins CacheSystem::snapshot()/restore(): a cell
 * that ran A, took a snapshot, ran B and restored it must run C
 * exactly as a fresh cell that ran only A and C does, from the same
 * states (the trace, a log rather than state, is not compared).
 * Re-snapshotting a growing footprint into one Snapshot must keep
 * the memory it ever took bounded, as a checkpoint's arena keeps it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory_resource>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/differ.hh"
#include "check/schedule.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"

namespace hmtx::sim
{
namespace
{

using check::OpKind;
using check::Schedule;

/** Always lets a request overtake the in-flight work at a busy
 *  directory bank (the non-FIFO delivery order). */
class Overtake final : public DeliveryChooser
{
  public:
    unsigned choose(Addr, unsigned n) override { return n - 1; }
};

/** Counts every byte allocated through it, freed or not: what a
 *  monotonic arena in its place would keep. */
class CountingResource final : public std::pmr::memory_resource
{
  public:
    std::size_t allocated = 0;

  private:
    void*
    do_allocate(std::size_t n, std::size_t align) override
    {
        allocated += n;
        return std::pmr::new_delete_resource()->allocate(n, align);
    }

    void
    do_deallocate(void* p, std::size_t n, std::size_t align) override
    {
        std::pmr::new_delete_resource()->deallocate(p, n, align);
    }

    bool
    do_is_equal(const std::pmr::memory_resource& o) const noexcept override
    {
        return this == &o;
    }
};

/** Everything a run can observe, for exact comparison. */
struct Outcome
{
    /** Per op: what it returned (AccessResult fields, cycles, ok),
     *  then lcVid and abortGen after it. */
    std::vector<std::uint64_t> log;
    SysStats sys;
    IndexStats idx;
    TxModeStats mode;
    Vid lcVid = 0;
    std::uint64_t abortGen = 0;
    Tick tick = 0;
    std::uint64_t executed = 0;
    std::size_t pending = 0;
    std::uint64_t traced = 0;
    /** The retained trace, oldest first. */
    std::vector<TraceRecord> trace;
    std::uint64_t comparisons = 0;
    std::size_t overflowEntries = 0;
    std::uint64_t overflowSpills = 0;
    std::uint64_t overflowRefills = 0;
    std::vector<std::pair<Addr, LineData>> image;
};

/** One cell: a queue and the system on it. */
struct Cell
{
    explicit Cell(const MachineConfig& mc) : sys(eq, mc) {}

    EventQueue eq;
    CacheSystem sys;
    /** Callback events fired (lives as long as the queue). */
    std::uint64_t fired = 0;
};

/** How far drive() runs schedule A. */
enum class Stop
{
    End,
    /** Right after the first op that raised an abort. */
    FirstAbort,
};

/**
 * Runs @p s on @p c directly (no golden model): VIDs are LC + vidOff,
 * pending SLAs are confirmed in FIFO order, a commit drains its VID's
 * SLAs first, and every op is followed by one queue event 0-2 ticks
 * ahead, which advances simulated time. Returns false if it stopped
 * at an abort.
 */
bool
drive(Cell& c, const Schedule& s, Outcome& out, Stop stop = Stop::End)
{
    CacheSystem& sys = c.sys;
    const Vid maxVid = sys.config().maxVid();
    struct Pending
    {
        CoreId core;
        SlaEntry e;
    };
    std::deque<Pending> pending;
    auto logResult = [&](const AccessResult& r) {
        out.log.insert(out.log.end(),
                       {r.value, r.latency, std::uint64_t(r.needSla),
                        std::uint64_t(r.aborted), std::uint64_t(r.l1Hit)});
    };
    for (std::size_t i = 0; i < s.ops.size(); ++i) {
        const check::Op& op = s.ops[i];
        const std::uint64_t gen0 = sys.abortGen();
        const bool nonSpec = op.kind == OpKind::NonSpecLoad ||
            op.kind == OpKind::NonSpecStore;
        const Vid vid = nonSpec ? kNonSpecVid : sys.lcVid() + op.vidOff;
        const CoreId core = op.core % sys.config().numCores;
        switch (op.kind) {
        case OpKind::Load:
        case OpKind::NonSpecLoad:
        case OpKind::WrongPathLoad: {
            if (vid > maxVid)
                break;
            const bool wp = op.kind == OpKind::WrongPathLoad;
            const AccessResult r = sys.load(core, op.addr, op.size, vid, wp);
            logResult(r);
            if (r.needSla && !wp && vid != kNonSpecVid &&
                sys.config().slaEnabled)
                pending.push_back(
                    {core, {op.addr, vid, r.value, op.size}});
            break;
        }
        case OpKind::Store:
        case OpKind::NonSpecStore:
            if (vid > maxVid)
                break;
            logResult(sys.store(core, op.addr, op.value, op.size, vid));
            break;
        case OpKind::Commit: {
            const Vid v = sys.lcVid() + 1;
            if (v > maxVid)
                break;
            bool ok = true;
            for (auto it = pending.begin(); ok && it != pending.end();) {
                if (it->e.vid != v) {
                    ++it;
                    continue;
                }
                ok = sys.slaConfirm(it->core, it->e);
                out.log.push_back(ok);
                it = pending.erase(it);
            }
            if (ok && sys.abortGen() == gen0)
                out.log.push_back(sys.commit(v));
            break;
        }
        case OpKind::AbortAll:
            out.log.push_back(sys.abortAll());
            break;
        case OpKind::VidReset:
            out.log.push_back(sys.abortAll());
            out.log.push_back(sys.vidReset());
            break;
        case OpKind::SlaConfirm:
        case OpKind::SlaMismatch:
            if (!pending.empty()) {
                SlaEntry e = pending.front().e;
                if (op.kind == OpKind::SlaMismatch)
                    e.value += op.value | 1;
                out.log.push_back(
                    sys.slaConfirm(pending.front().core, e));
                pending.pop_front();
            }
            break;
        }
        out.log.insert(out.log.end(), {sys.lcVid(), sys.abortGen()});
        if (sys.abortGen() != gen0) {
            pending.clear();
            if (stop == Stop::FirstAbort)
                return false;
        }
        c.eq.scheduleIn(i % 3, [&c] { ++c.fired; });
        c.eq.step();
    }
    return true;
}

Outcome
observe(Cell& c, Outcome out)
{
    CacheSystem& sys = c.sys;
    sys.checkInvariants();
    out.sys = sys.stats();
    out.idx = sys.indexStats();
    out.mode = sys.txPolicy().stats();
    out.lcVid = sys.lcVid();
    out.abortGen = sys.abortGen();
    out.tick = c.eq.curTick();
    out.executed = c.eq.executed();
    out.pending = c.eq.pending();
    out.traced = sys.trace().recorded();
    sys.trace().forEach(
        [&](const TraceRecord& r) { out.trace.push_back(r); });
    out.comparisons = sys.comparator().comparisons();
    out.overflowEntries = sys.overflowTable().size();
    out.overflowSpills = sys.overflowTable().spills();
    out.overflowRefills = sys.overflowTable().refills();
    sys.flushDirtyToMemory();
    sys.memory().forEachLine([&](Addr a, const LineData& d) {
        out.image.emplace_back(a, d);
    });
    std::sort(out.image.begin(), out.image.end(),
              [](const auto& x, const auto& y) { return x.first < y.first; });
    return out;
}

/** What a snapshot brings back: everything but the trace and the
 *  queue's own event counts. */
enum class Compare
{
    All,
    RestoredState,
};

void
expectSame(const Outcome& fresh, const Outcome& reused,
           Compare what = Compare::All)
{
    const auto mis = std::mismatch(fresh.log.begin(), fresh.log.end(),
                                   reused.log.begin(), reused.log.end());
    EXPECT_TRUE(mis.first == fresh.log.end() &&
                mis.second == reused.log.end())
        << "op results differ at log entry "
        << (mis.first - fresh.log.begin()) << " of " << fresh.log.size()
        << "/" << reused.log.size();
    EXPECT_TRUE(fresh.sys == reused.sys) << "SysStats differ";
    EXPECT_TRUE(fresh.idx == reused.idx) << "IndexStats differ";
    EXPECT_TRUE(fresh.mode == reused.mode) << "TxModeStats differ";
    EXPECT_EQ(fresh.lcVid, reused.lcVid);
    EXPECT_EQ(fresh.abortGen, reused.abortGen);
    EXPECT_EQ(fresh.tick, reused.tick);
    EXPECT_EQ(fresh.pending, reused.pending);
    if (what == Compare::All) {
        EXPECT_EQ(fresh.executed, reused.executed);
        EXPECT_EQ(fresh.traced, reused.traced);
        EXPECT_TRUE(fresh.trace == reused.trace) << "traces differ";
    }
    EXPECT_EQ(fresh.comparisons, reused.comparisons);
    EXPECT_EQ(fresh.overflowEntries, reused.overflowEntries);
    EXPECT_EQ(fresh.overflowSpills, reused.overflowSpills);
    EXPECT_EQ(fresh.overflowRefills, reused.overflowRefills);
    EXPECT_TRUE(fresh.image == reused.image) << "memory images differ";
}

/** Fuzz config every cell is built from: the generator's machine,
 *  unbounded spec sets so the hmtx cells can spill. */
check::FuzzConfig
baseConfig()
{
    check::FuzzConfig c = check::generate(1, 1).cfg;
    c.numCores = 2;
    c.unboundedSpecSets = true;
    c.slaEnabled = true;
    return c;
}

/** Schedule of @p seed's ops on the cells' config. */
Schedule
schedule(std::uint64_t seed, unsigned ops, const check::FuzzConfig& c)
{
    Schedule s = check::generate(seed, ops);
    s.cfg = c;
    for (check::Op& op : s.ops)
        op.core %= c.numCores;
    return s;
}

/**
 * Speculative stores of VIDs 1-6 to six lines colliding in one L1 and
 * one L2 set (the generator's collider pool, so schedule B revisits
 * them): far more versions than the L2 set holds.
 */
Schedule
overflowSchedule(const check::FuzzConfig& c)
{
    const Addr l1Sets = c.l1KB * 1024 / kLineBytes / c.l1Assoc;
    const Addr l2Sets = c.l2KB * 1024 / kLineBytes / c.l2Assoc;
    const Addr stride = std::max(l1Sets, l2Sets) * kLineBytes;
    Schedule s;
    s.cfg = c;
    for (std::uint8_t v = 1; v <= 6; ++v) {
        for (unsigned line = 0; line < 6; ++line) {
            check::Op op;
            op.kind = OpKind::Store;
            op.core = static_cast<std::uint8_t>(line % c.numCores);
            op.vidOff = v;
            op.addr = 0x40000 + line * stride;
            op.value = 0x1000u * v + line;
            s.ops.push_back(op);
        }
    }
    return s;
}

/** One op of kind @p k on line @p a at VID LC + @p vidOff. */
check::Op
makeOp(OpKind k, Addr a, std::uint8_t vidOff)
{
    check::Op op;
    op.kind = k;
    op.vidOff = vidOff;
    op.addr = a;
    op.value = 0x5eed;
    return op;
}

struct CellParam
{
    const char* name;
    /** 0-3: check::cellConfig index; 4-7: btx bus/dir, ltd bus/dir. */
    int cell;
};

void
PrintTo(const CellParam& p, std::ostream* os)
{
    *os << p.name;
}

MachineConfig
configOf(const CellParam& p, const check::FuzzConfig& c = baseConfig())
{
    MachineConfig mc = p.cell < check::kHmtxCells
        ? check::cellConfig(c, p.cell)
        : check::modeCellConfig(
              c, p.cell < 6 ? check::kGroupBtx : check::kGroupLtd,
              p.cell % 2 == 0 ? Fabric::SnoopBus : Fabric::Directory);
    mc.traceEnabled = true;
    return mc;
}

class ResetMatchesFresh : public ::testing::TestWithParam<CellParam>
{
  protected:
    /** Runs B on a fresh cell. */
    Outcome
    fresh(const Schedule& b)
    {
        Cell c(configOf(GetParam()));
        Outcome out;
        drive(c, b, out);
        return observe(c, std::move(out));
    }

    /** Runs B on @p c after resetting it, and compares with fresh. */
    void
    resetAndCompare(Cell& c, const Schedule& b)
    {
        // Leave events pending, one near and one far ahead.
        c.eq.scheduleIn(5, [&c] { ++c.fired; });
        c.eq.scheduleIn(100000, [&c] { ++c.fired; });
        c.eq.reset();
        c.sys.reset();
        Outcome out;
        drive(c, b, out);
        expectSame(fresh(b), observe(c, std::move(out)));
    }

    const check::FuzzConfig cfg_ = baseConfig();
    const Schedule a_ = schedule(11, 300, cfg_);
    const Schedule b_ = schedule(12, 300, cfg_);
};

TEST_P(ResetMatchesFresh, AfterFullRun)
{
    Cell c(configOf(GetParam()));
    Outcome ignored;
    drive(c, a_, ignored);
    resetAndCompare(c, b_);
}

TEST_P(ResetMatchesFresh, AfterRunLeftMidAbort)
{
    Cell c(configOf(GetParam()));
    Outcome ignored;
    ASSERT_FALSE(drive(c, a_, ignored, Stop::FirstAbort))
        << "schedule A never aborted";
    resetAndCompare(c, b_);
}

TEST_P(ResetMatchesFresh, AfterRunWithDeliveryChooser)
{
    Overtake overtake; // outlives the cell
    Cell c(configOf(GetParam()));
    c.sys.interconnect().setDeliveryChooser(&overtake);
    Outcome ignored;
    drive(c, a_, ignored);
    resetAndCompare(c, b_);
}

TEST_P(ResetMatchesFresh, AfterRunThatOverflowedAnL2Set)
{
    // A's versions outgrow one L2 set: the hmtx cells (unbounded spec
    // sets) spill them to the overflow table, the bounded modes
    // capacity-abort instead.
    const MachineConfig mc = configOf(GetParam());
    Cell c(mc);
    Outcome ignored;
    const Schedule overflow = overflowSchedule(cfg_);
    drive(c, overflow, ignored);
    if (mc.unboundedSpecSets)
        ASSERT_GT(c.sys.stats().specSpills, 0u) << "A never spilled";
    else
        ASSERT_GT(c.sys.stats().capacityAborts, 0u) << "A never aborted";
    // B overflows too, so it reuses the table's recycled lists.
    Schedule b = overflow;
    b.ops.insert(b.ops.end(), b_.ops.begin(), b_.ops.end());
    resetAndCompare(c, b);
}

TEST_P(ResetMatchesFresh, AfterRunLeftShadowMarks)
{
    // Under SLAs a wrong-path load leaves a shadow mark instead of a
    // read mark; a later lower-VID store to the line counts an
    // avoided abort (§5.1). A stale mark must not survive the reset.
    const Addr line = 0x40000;
    Schedule a;
    a.cfg = cfg_;
    a.ops = {makeOp(OpKind::WrongPathLoad, line, 6)};
    Schedule b = b_;
    b.ops.insert(b.ops.begin(), makeOp(OpKind::Store, line, 1));
    Cell c(configOf(GetParam()));
    Outcome ignored;
    drive(c, a, ignored);
    resetAndCompare(c, b);
}

TEST_P(ResetMatchesFresh, RepeatedResets)
{
    // A reset cell is itself a valid starting point: run B three
    // times on one cell, resetting in between.
    Cell c(configOf(GetParam()));
    for (int i = 0; i < 3; ++i) {
        SCOPED_TRACE("round " + std::to_string(i));
        Outcome ignored;
        drive(c, i == 1 ? a_ : b_, ignored);
        resetAndCompare(c, b_);
    }
}

/** One reset(cfg) case: the fuzz knobs before and after. */
struct Retarget
{
    const char* what;
    check::FuzzConfig from;
    check::FuzzConfig to;
};

/** The knob changes a model-checker program's config can make. */
std::vector<Retarget>
retargets()
{
    const check::FuzzConfig base = baseConfig();
    std::vector<Retarget> out;
    auto add = [&](const char* what, auto set, auto a, auto b) {
        check::FuzzConfig from = base, to = base;
        set(from, a);
        set(to, b);
        out.push_back({what, from, to});
    };
    auto vidBits = [](check::FuzzConfig& c, unsigned v) { c.vidBits = v; };
    auto sla = [](check::FuzzConfig& c, bool v) { c.slaEnabled = v; };
    auto retries = [](check::FuzzConfig& c, unsigned v) {
        c.btxRetries = v;
    };
    auto k = [](check::FuzzConfig& c, unsigned v) { c.limitedK = v; };
    add("vidBits 6->4", vidBits, 6u, 4u);
    add("vidBits 4->6", vidBits, 4u, 6u);
    add("sla on->off", sla, true, false);
    add("sla off->on", sla, false, true);
    add("btxRetries 1->2", retries, 1u, 2u);
    add("btxRetries 2->1", retries, 2u, 1u);
    add("limitedK 1->2", k, 1u, 2u);
    add("limitedK 2->3", k, 2u, 3u);
    add("limitedK 3->1", k, 3u, 1u);
    return out;
}

TEST_P(ResetMatchesFresh, ResetToAnotherConfig)
{
    for (const Retarget& r : retargets()) {
        SCOPED_TRACE(r.what);
        Cell c(configOf(GetParam(), r.from));
        Outcome ignored;
        drive(c, a_, ignored);
        c.eq.scheduleIn(5, [&c] { ++c.fired; });
        c.eq.reset();
        const MachineConfig to = configOf(GetParam(), r.to);
        c.sys.reset(to);
        EXPECT_EQ(c.sys.config().vidBits, to.vidBits);
        EXPECT_EQ(c.sys.config().slaEnabled, to.slaEnabled);
        EXPECT_EQ(c.sys.txPolicy().config().btxMaxRetries,
                  to.btxMaxRetries);
        EXPECT_EQ(c.sys.txPolicy().config().limitedSetK, to.limitedSetK);
        Schedule b = b_;
        b.cfg = r.to;
        Outcome got;
        drive(c, b, got);
        Cell fresh(to);
        Outcome want;
        drive(fresh, b, want);
        expectSame(observe(fresh, std::move(want)),
                   observe(c, std::move(got)));
    }
}

TEST_P(ResetMatchesFresh, ResetToAnotherStructureThrows)
{
    const MachineConfig mc = configOf(GetParam());
    std::vector<MachineConfig> bad(7, mc);
    bad[0].numCores = 4;
    bad[1].l1SizeKB *= 2;
    bad[2].l1Assoc *= 2;
    bad[3].l2SizeKB *= 2;
    bad[4].l2Assoc *= 2;
    bad[5].fabric = mc.fabric == Fabric::SnoopBus ? Fabric::Directory
                                                  : Fabric::SnoopBus;
    bad[6].dirBanks *= 2;
    Cell c(mc);
    for (const MachineConfig& b : bad)
        EXPECT_THROW(c.sys.reset(b), std::invalid_argument);
    // The cell is untouched: B runs as on a fresh cell.
    Outcome out;
    drive(c, b_, out);
    expectSame(fresh(b_), observe(c, std::move(out)));
}

/**
 * snapshot()/restore() against a fresh replay: a cell runs A, takes a
 * snapshot, runs B, restores and runs C; a fresh cell runs A then C.
 */
class RestoreMatchesFresh : public ResetMatchesFresh
{
  protected:
    /**
     * @p prepare runs on both cells before A (e.g. installs a
     * chooser); @p stop says how far A runs; @p between runs on the
     * tested cell after the snapshot, before B.
     */
    template <typename Prepare, typename Between>
    void
    check(const Schedule& a, const Schedule& c, Stop stop,
          Prepare&& prepare, Between&& between)
    {
        Cell fresh(configOf(GetParam()));
        prepare(fresh);
        Outcome want;
        drive(fresh, a, want, stop);
        fresh.sys.verifyIndexes(); // as the tested cell does below
        drive(fresh, c, want);

        Cell cell(configOf(GetParam()));
        prepare(cell);
        Outcome got;
        drive(cell, a, got, stop);
        CacheSystem::Snapshot snap;
        cell.sys.snapshot(snap);
        between(cell);
        Outcome ignored;
        drive(cell, b_, ignored);
        // Restore twice: a snapshot stays valid after a restore.
        cell.sys.restore(snap);
        drive(cell, b_, ignored);
        cell.sys.restore(snap);
        // Registry entries point into set buffers refilled in place.
        cell.sys.verifyIndexes();
        drive(cell, c, got);
        expectSame(observe(fresh, std::move(want)),
                   observe(cell, std::move(got)), Compare::RestoredState);
    }

    void
    check(const Schedule& a, const Schedule& c, Stop stop = Stop::End)
    {
        check(a, c, stop, [](Cell&) {}, [](Cell&) {});
    }

    const Schedule c_ = schedule(13, 300, cfg_);
};

TEST_P(RestoreMatchesFresh, AfterFullRun)
{
    check(a_, c_);
}

TEST_P(RestoreMatchesFresh, SnapshotTakenMidAbort)
{
    check(a_, c_, Stop::FirstAbort);
}

TEST_P(RestoreMatchesFresh, RestoresTheDeliveryChooser)
{
    // Installed when the snapshot was taken, removed before B: the
    // restore must put it back for C.
    Overtake overtake; // outlives both cells
    check(
        a_, c_, Stop::End,
        [&](Cell& c) { c.sys.interconnect().setDeliveryChooser(&overtake); },
        [](Cell& c) { c.sys.interconnect().setDeliveryChooser(nullptr); });
}

TEST_P(RestoreMatchesFresh, RestoresSpilledLines)
{
    // A leaves versions in the overflow table (hmtx cells) or a
    // capacity abort behind (bounded modes); C revisits the lines.
    const Schedule overflow = overflowSchedule(cfg_);
    Schedule c = overflow;
    c.ops.insert(c.ops.end(), c_.ops.begin(), c_.ops.end());
    check(overflow, c);
}

TEST_P(RestoreMatchesFresh, RestoresShadowMarks)
{
    // A's wrong-path load leaves a shadow mark; C's lower-VID store
    // to the line counts an avoided abort only if it survived.
    const Addr line = 0x40000;
    Schedule a;
    a.cfg = cfg_;
    a.ops = {makeOp(OpKind::WrongPathLoad, line, 6)};
    Schedule c = c_;
    c.ops.insert(c.ops.begin(), makeOp(OpKind::Store, line, 1));
    check(a, c);
}

TEST_P(RestoreMatchesFresh, ResetIsTheConstructionSnapshot)
{
    // A snapshot of a just-built cell restores what reset() does.
    Cell fresh(configOf(GetParam()));
    Outcome want;
    drive(fresh, c_, want);

    Cell cell(configOf(GetParam()));
    CacheSystem::Snapshot snap;
    cell.sys.snapshot(snap);
    Outcome ignored;
    drive(cell, a_, ignored);
    cell.sys.restore(snap);
    Outcome got;
    drive(cell, c_, got);
    expectSame(observe(fresh, std::move(want)),
               observe(cell, std::move(got)), Compare::RestoredState);
}

TEST_P(RestoreMatchesFresh, ResnapshotsOfAGrowingFootprintStayBounded)
{
    // Non-speculative stores to 512 distinct lines, far more than the
    // caches hold, so memory gains about a line per store. Snapshots
    // after every store into one Snapshot take at most a few times
    // what one snapshot of the final state takes, not a new block per
    // re-save.
    Cell cell(configOf(GetParam()));
    CountingResource resaved;
    CacheSystem::Snapshot snap(&resaved);
    Schedule one;
    one.cfg = cfg_;
    one.ops.resize(1);
    Outcome ignored;
    for (Addr i = 0; i < 512; ++i) {
        one.ops[0] =
            makeOp(OpKind::NonSpecStore, 0x40000 + i * kLineBytes, 0);
        drive(cell, one, ignored);
        cell.sys.snapshot(snap);
    }
    CountingResource once;
    CacheSystem::Snapshot last(&once);
    cell.sys.snapshot(last);
    ASSERT_GT(once.allocated, 256 * sizeof(LineData)) << "memory grew";
    EXPECT_LE(resaved.allocated, 4 * once.allocated);
}

const CellParam kCells[] = {
    {"bus_lazy", 0}, {"bus_eager", 1}, {"dir_lazy", 2}, {"dir_eager", 3},
    {"bus_btx", 4},  {"dir_btx", 5},   {"bus_ltd", 6},  {"dir_ltd", 7},
};

INSTANTIATE_TEST_SUITE_P(
    MatrixCells, ResetMatchesFresh, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<CellParam>& i) {
        return std::string(i.param.name);
    });

INSTANTIATE_TEST_SUITE_P(
    MatrixCells, RestoreMatchesFresh, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<CellParam>& i) {
        return std::string(i.param.name);
    });

} // namespace
} // namespace hmtx::sim
