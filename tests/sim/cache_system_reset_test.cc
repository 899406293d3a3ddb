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
 * marks, and events still pending on the queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <ostream>
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
    /** The retained trace, one "tick text" line per event. */
    std::vector<std::string> trace;
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
    for (const Trace::Entry& e : sys.trace().entries())
        out.trace.push_back(std::to_string(e.when) + " " + e.text);
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

void
expectSame(const Outcome& fresh, const Outcome& reused)
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
    EXPECT_EQ(fresh.executed, reused.executed);
    EXPECT_EQ(fresh.pending, reused.pending);
    EXPECT_EQ(fresh.traced, reused.traced);
    EXPECT_TRUE(fresh.trace == reused.trace) << "traces differ";
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
configOf(const CellParam& p)
{
    const check::FuzzConfig c = baseConfig();
    MachineConfig mc = p.cell < check::kHmtxCells
        ? check::cellConfig(c, p.cell)
        : check::modeCellConfig(
              c, p.cell < 6 ? check::kGroupBtx : check::kGroupLtd,
              p.cell % 2 == 0 ? Fabric::SnoopBus : Fabric::Directory);
    mc.traceFlags = TraceAll;
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
        // Leave events on the wheel and in the far heap.
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

const CellParam kCells[] = {
    {"bus_lazy", 0}, {"bus_eager", 1}, {"dir_lazy", 2}, {"dir_eager", 3},
    {"bus_btx", 4},  {"dir_btx", 5},   {"bus_ltd", 6},  {"dir_ltd", 7},
};

INSTANTIATE_TEST_SUITE_P(
    MatrixCells, ResetMatchesFresh, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<CellParam>& i) {
        return std::string(i.param.name);
    });

} // namespace
} // namespace hmtx::sim
