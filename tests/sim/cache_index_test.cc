/**
 * @file
 * Tests of the simulator-side acceleration indexes: the per-set tag
 * summaries that filter snoops and the per-cache speculative/dirty
 * line registry.
 * The indexes are pure caches over the authoritative Line state, so
 * the tests drive the protocol through representative flows and then
 * ask verifyIndexes() to rebuild both from a full scan and compare —
 * plus corruption tests proving the cross-check actually detects
 * drift, and a test that checkInvariants() is observation-only.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace hmtx::sim
{
namespace
{

MachineConfig
smallConfig()
{
    MachineConfig cfg;
    cfg.l2SizeKB = 256; // keep walks cheap in tests
    return cfg;
}

class IndexFixture : public ::testing::Test
{
  protected:
    IndexFixture() : sys(eq, smallConfig()) {}

    /** Loads, spec stores, forwarding, commits — a protocol workout. */
    void
    workout()
    {
        for (unsigned i = 0; i < 64; ++i)
            sys.load(i % 4, 0x8000 + Addr{i} * 64, 8, 0);
        for (unsigned i = 0; i < 16; ++i)
            sys.store(i % 4, 0x1000 + Addr{i} * 64, i + 1, 8,
                      1 + (i % 4));
        sys.load(2, 0x1000, 8, 2); // uncommitted forwarding
        for (Vid v = 1; v <= 4; ++v)
            sys.commit(v);
    }

    EventQueue eq;
    CacheSystem sys;
};

TEST_F(IndexFixture, IndexesConsistentAcrossProtocolFlows)
{
    workout();
    EXPECT_NO_THROW(sys.verifyIndexes());

    sys.vidReset();
    EXPECT_NO_THROW(sys.verifyIndexes());

    for (unsigned i = 0; i < 8; ++i)
        sys.store(i % 4, 0x2000 + Addr{i} * 64, i, 8, 1);
    sys.abortAll();
    EXPECT_NO_THROW(sys.verifyIndexes());

    sys.flushDirtyToMemory();
    EXPECT_NO_THROW(sys.verifyIndexes());
}

TEST_F(IndexFixture, IndexesConsistentAfterCapacityEvictions)
{
    // More lines than the 256 KB L2 holds: fills, evictions and
    // writebacks all funnel through syncLine.
    for (unsigned i = 0; i < 8192; ++i)
        sys.store(i % 4, 0x100000 + Addr{i} * 64, i, 8, 0);
    EXPECT_NO_THROW(sys.verifyIndexes());
    EXPECT_GT(sys.stats().writebacks, 0u);
}

TEST_F(IndexFixture, RegistryDrainsOncePurged)
{
    workout();
    sys.vidReset();
    sys.flushDirtyToMemory();
    // After reset + flush no line is speculative or dirty; the lazy
    // purge in the flush walk leaves every registry empty.
    for (CoreId c = 0; c < 4; ++c)
        EXPECT_EQ(sys.l1(c).registrySize(), 0u) << "core " << c;
    EXPECT_EQ(sys.l2().registrySize(), 0u);
}

TEST_F(IndexFixture, SnoopFilterActuallyFilters)
{
    workout();
    sys.vidReset(); // lazy commit defers the walk to the reset
    const IndexStats& idx = sys.indexStats();
    EXPECT_GT(idx.snoopsFiltered, 0u);
    EXPECT_GT(idx.snoopFilterRate(), 0.0);
    EXPECT_GT(idx.registryWalks, 0u);
    EXPECT_EQ(idx.fullScanWalks, 0u);
}

TEST_F(IndexFixture, CheckInvariantsIsReadOnly)
{
    workout();

    std::vector<Line> before;
    std::vector<LineData> beforeData;
    auto snapshot = [&](std::vector<Line>& out,
                        std::vector<LineData>& dout) {
        out.clear();
        dout.clear();
        auto grab = [&](Cache& c) {
            c.forEachLine([&](Line& l) {
                out.push_back(l);
                if (l.state != State::Invalid)
                    dout.push_back(c.dataOf(l));
            });
        };
        for (CoreId c = 0; c < 4; ++c)
            grab(sys.l1(c));
        grab(sys.l2());
    };
    snapshot(before, beforeData);
    SysStats statsBefore = sys.stats();

    sys.checkInvariants();

    std::vector<Line> after;
    std::vector<LineData> afterData;
    snapshot(after, afterData);
    ASSERT_EQ(before.size(), after.size());
    for (std::size_t i = 0; i < before.size(); ++i) {
        const Line& a = before[i];
        const Line& b = after[i];
        EXPECT_EQ(a.state, b.state) << "line " << i;
        EXPECT_EQ(a.tag.mod, b.tag.mod) << "line " << i;
        EXPECT_EQ(a.tag.high, b.tag.high) << "line " << i;
        EXPECT_EQ(a.dirty, b.dirty) << "line " << i;
        EXPECT_EQ(a.base, b.base) << "line " << i;
    }
    ASSERT_EQ(beforeData.size(), afterData.size());
    for (std::size_t i = 0; i < beforeData.size(); ++i)
        EXPECT_EQ(beforeData[i], afterData[i]) << "data " << i;
    EXPECT_TRUE(statsBefore == sys.stats());
}

TEST_F(IndexFixture, DetectsRegistryDrift)
{
    sys.load(0, 0x3000, 8, 0);
    EXPECT_NO_THROW(sys.verifyIndexes());
    // Dirty the line behind syncLine's back: it is now "interesting"
    // but on no registry.
    bool poked = false;
    sys.l1(0).forEachLine([&](Line& l) {
        if (!poked && l.state != State::Invalid && !l.dirty) {
            l.dirty = true;
            poked = true;
        }
    });
    ASSERT_TRUE(poked);
    EXPECT_THROW(sys.verifyIndexes(), std::logic_error);
}

TEST_F(IndexFixture, DetectsPresenceDrift)
{
    sys.load(0, 0x4000, 8, 0);
    EXPECT_NO_THROW(sys.verifyIndexes());
    // Invalidate behind syncLine's back: the slot is still counted
    // present and its set summary still carries the address's bit.
    bool poked = false;
    sys.l1(0).forEachLine([&](Line& l) {
        if (!poked && l.state != State::Invalid) {
            l.state = State::Invalid;
            poked = true;
        }
    });
    ASSERT_TRUE(poked);
    EXPECT_THROW(sys.verifyIndexes(), std::logic_error);
}

TEST_F(IndexFixture, DetectsSummaryDrift)
{
    constexpr Addr la = 0x5000;
    sys.load(0, la, 8, 0);
    EXPECT_NO_THROW(sys.verifyIndexes());
    LineSet& s = sys.l1(0).set(la);
    const std::uint64_t bit = tagBit(la);
    ASSERT_NE(s.tags & bit, 0u);

    // A missing bit would hide this L1 from every snoop for la.
    s.tags &= ~bit;
    EXPECT_THROW(sys.verifyIndexes(), std::logic_error);
    s.tags |= bit;
    EXPECT_NO_THROW(sys.verifyIndexes());

    // A stale bit (no valid line of the set hashes to it) only costs
    // scans, but still means syncLine missed a departure.
    const std::uint64_t stale = ~s.tags & (s.tags + 1);
    ASSERT_NE(stale, 0u);
    s.tags |= stale;
    EXPECT_THROW(sys.verifyIndexes(), std::logic_error);
}

/** Every valid line's bit is in its set's summary, in every cache. */
::testing::AssertionResult
summariesCoverValidLines(CacheSystem& sys)
{
    std::string bad;
    auto scan = [&](Cache& c) {
        c.forEachSet([&](LineSet& s) {
            for (const Line& l : s.lines) {
                if (bad.empty() && l.state != State::Invalid &&
                    (s.tags & tagBit(l.base)) == 0) {
                    bad = c.name();
                }
            }
        });
    };
    for (CoreId c = 0; c < sys.config().numCores; ++c)
        scan(sys.l1(c));
    scan(sys.l2());
    if (bad.empty())
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "a valid line's tagBit is missing from its set summary in "
        << bad;
}

/**
 * A miss-heavy random load/store/commit/abort stream over @p lines
 * line addresses, @p stride bytes apart, run on @p cfg. After every
 * operation each valid line's set summary must hold its bit; every
 * 16 operations (and at the end) the summaries must also equal a
 * rebuild, and the protocol invariants must hold. Returns the run's
 * statistics.
 */
SysStats
summaryStream(const MachineConfig& cfg, Addr stride, unsigned lines,
              std::uint64_t seed)
{
    EventQueue eq;
    CacheSystem sys(eq, cfg);
    Rng rng(seed);
    const Vid maxV = cfg.maxVid();
    constexpr unsigned kOps = 3000;
    for (unsigned op = 0; op < kOps; ++op) {
        const Addr a = 0x40000 + stride * rng.range(lines);
        const auto core = static_cast<CoreId>(rng.range(cfg.numCores));
        const Vid lc = sys.lcVid();
        // A 16-VID window keeps enough speculative versions live to
        // overflow an L2 set (spills, or capacity aborts when bounded);
        // most stores take its top VID, which no reader can be above.
        const auto vid = static_cast<Vid>(lc + 1 + rng.range(16));
        const Vid top = lc + 16;
        const std::uint64_t r = rng.range(1000);
        if (lc + 16 > maxV) {
            while (sys.lcVid() < maxV)
                sys.commit(sys.lcVid() + 1);
            sys.vidReset();
        } else if (r < 450) {
            sys.load(core, a, 8, rng.range(4) ? kNonSpecVid : vid);
        } else if (r < 960) {
            const std::uint64_t k = rng.range(64);
            sys.store(core, a, op, 8,
                      k == 0 ? kNonSpecVid : k < 16 ? vid : top);
        } else if (r < 995) {
            sys.commit(lc + 1);
        } else {
            sys.abortAll();
        }
        EXPECT_TRUE(summariesCoverValidLines(sys)) << "after op " << op;
        if (op % 16 == 15 || op + 1 == kOps) {
            EXPECT_NO_THROW(sys.verifyIndexes()) << "after op " << op;
            EXPECT_NO_THROW(sys.checkInvariants()) << "after op " << op;
        }
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_GT(sys.stats().writebacks, 0u);
    EXPECT_GT(sys.indexStats().snoopsFiltered, 0u);
    return sys.stats();
}

TEST(SetSummaryTest, MissHeavyStreamServingGeometry)
{
    // kv_serve's machine: 1 KB/2-way L1, 8 KB/8-way L2, spills on.
    MachineConfig cfg;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.vidBits = 8;
    cfg.unboundedSpecSets = true;
    std::uint64_t spills = 0;
    for (std::uint64_t seed : {1u, 2u, 3u})
        spills += summaryStream(cfg, 64, 512, seed).specSpills;
    EXPECT_GT(spills, 0u);
}

TEST(SetSummaryTest, MissHeavyStreamTable2Geometry)
{
    // Table 2's 32-way L2, where a summary word is most loaded: a
    // 1 MiB stride lands 96 addresses on one L1 set and one L2 set.
    MachineConfig cfg;
    const Addr stride = Addr{cfg.l2Sets()} * kLineBytes;
    std::uint64_t capacityAborts = 0;
    for (std::uint64_t seed : {1u, 2u})
        capacityAborts +=
            summaryStream(cfg, stride, 96, seed).capacityAborts;
    EXPECT_GT(capacityAborts, 0u);
}

TEST(IndexModesTest, FullScanModeKeepsIndexesConsistent)
{
    // forceFullScan bypasses the indexes for lookups but still
    // maintains them, so flipping the flag mid-run stays legal.
    MachineConfig cfg = smallConfig();
    cfg.forceFullScan = true;
    EventQueue eq;
    CacheSystem sys(eq, cfg);
    for (unsigned i = 0; i < 16; ++i)
        sys.store(i % 4, 0x1000 + Addr{i} * 64, i, 8, 1 + (i % 4));
    for (Vid v = 1; v <= 4; ++v)
        sys.commit(v);
    sys.vidReset();
    EXPECT_NO_THROW(sys.verifyIndexes());
    EXPECT_GT(sys.indexStats().fullScanWalks, 0u);
    EXPECT_EQ(sys.indexStats().registryWalks, 0u);
}

TEST(IndexModesTest, CrossCheckRunsWhenEnabled)
{
    MachineConfig cfg = smallConfig();
    cfg.indexCrossCheck = true;
    EventQueue eq;
    CacheSystem sys(eq, cfg);
    sys.store(0, 0x1000, 5, 8, 1);
    sys.commit(1);
    sys.abortAll();
    EXPECT_GT(sys.indexStats().crossChecks, 0u);
}

} // namespace
} // namespace hmtx::sim
