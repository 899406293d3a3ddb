/**
 * @file
 * Tests of CacheSystem's single allocation pass (§5.4): which way a
 * fill takes when its L1 set is full. Each case crafts the four ways
 * of one set of a tiny L1 directly — states, tags and LRU stamps set
 * behind syncLine's back, so the index self-checks are not consulted
 * — then drives an access whose fill must allocate in that set and
 * inspects where it landed. The last two cases pin load()'s re-runs
 * after a capacity abort raised by the load's own fill.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/cache_system.hh"
#include "sim/event_queue.hh"

namespace hmtx::sim
{
namespace
{

/** 1 KB 4-way L1s: four sets, so addresses 0x100 apart share a set. */
constexpr Addr kSetStride = 0x100;
/** The line every test fills into set 0. */
constexpr Addr kFill = 4 * kSetStride;

MachineConfig
tinyL1Config()
{
    MachineConfig cfg;
    cfg.numCores = 2;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 4;
    cfg.l2SizeKB = 256;
    return cfg;
}

struct Way
{
    Addr base;
    State state;
    VersionTag tag;
    Tick lastUse;
    bool latestCopy = false;
};

class AllocationFixture : public ::testing::Test
{
  protected:
    explicit AllocationFixture(const MachineConfig& cfg = tinyL1Config())
        : sys(eq, cfg)
    {}

    /** Fills set 0 of core 0's L1 with @p ways, in way order. */
    void
    craft(const std::vector<Way>& ways)
    {
        Cache& c = sys.l1(0);
        for (const Way& w : ways) {
            Line* l = c.freeSlot(0);
            ASSERT_NE(l, nullptr);
            l->base = w.base;
            l->state = w.state;
            l->tag = w.tag;
            l->lastUse = w.lastUse;
            l->latestCopy = w.latestCopy;
        }
        ASSERT_EQ(c.freeSlot(0), nullptr) << "set 0 must be full";
    }

    std::vector<Line>& set0() { return sys.l1(0).set(0).lines; }

    EventQueue eq;
    CacheSystem sys;
};

TEST_F(AllocationFixture, RequiredFillEvictsClassThenLruThenAddressMinimum)
{
    craft({
        {0x000, State::SpecModified, {1, 1}, 0}, // class 4, oldest
        {0x300, State::Exclusive, {}, 5},        // class 2
        {0x200, State::Shared, {}, 3},           // class 2, LRU tie
        {0x100, State::Shared, {}, 3},           // ... lower address
    });
    ASSERT_FALSE(sys.load(0, kFill, 8, 0).aborted);
    EXPECT_EQ(set0()[3].base, kFill);
    EXPECT_EQ(set0()[3].state, State::Exclusive);
    EXPECT_EQ(set0()[0].state, State::SpecModified);
    EXPECT_EQ(set0()[1].base, 0x300u);
    EXPECT_EQ(set0()[2].base, 0x200u);
}

TEST_F(AllocationFixture, ExactTiesGoToTheFirstWay)
{
    // Two superseded S-S copies of one line (class 1) with the same
    // LRU stamp tie on every key.
    craft({
        {0x000, State::Exclusive, {}, 0},
        {0x100, State::SpecShared, {1, 3}, 2},
        {0x100, State::SpecShared, {3, 5}, 2},
        {0x200, State::Modified, {}, 0},
    });
    ASSERT_FALSE(sys.load(0, kFill, 8, 0).aborted);
    EXPECT_EQ(set0()[1].base, kFill);
    EXPECT_EQ(set0()[2].state, State::SpecShared);
    EXPECT_EQ(set0()[2].tag, (VersionTag{3, 5}));
}

TEST_F(AllocationFixture, OptionalFillRefusesSpeculativeVictims)
{
    // Core 1 owns a speculative version of kFill; core 0's read of it
    // asks for an optional S-S copy in a set holding only pristine
    // S-O (class 3) and responder-class (class 4) versions.
    ASSERT_FALSE(sys.store(1, kFill, 42, 8, 1).aborted);
    craft({
        {0x000, State::SpecOwned, {0, 3}, 0},
        {0x100, State::SpecModified, {3, 3}, 1},
        {0x200, State::SpecExclusive, {0, 4}, 2},
        {0x300, State::SpecOwned, {2, 4}, 3},
    });
    const std::vector<Line> before = set0();
    AccessResult r = sys.load(0, kFill, 8, 2);
    ASSERT_FALSE(r.aborted);
    EXPECT_EQ(r.value, 42u); // served remotely, no local copy kept
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(set0()[i].base, before[i].base) << "way " << i;
        EXPECT_EQ(set0()[i].state, before[i].state) << "way " << i;
        EXPECT_EQ(set0()[i].tag, before[i].tag) << "way " << i;
    }
    EXPECT_EQ(sys.stats().capacityAborts, 0u);
}

TEST_F(AllocationFixture, WayReconciledToInvalidIsReusedFirstInWayOrder)
{
    // Ways 2 and 3 are superseded copies whose last reader (VID 1)
    // commits: lazy reconciliation during the pass frees both.
    craft({
        {0x000, State::Exclusive, {}, 0}, // LRU victim otherwise
        {0x100, State::Modified, {}, 5},
        {0x200, State::SpecShared, {0, 2}, 9},
        {0x300, State::SpecShared, {0, 2}, 9},
    });
    sys.commit(1);
    ASSERT_FALSE(sys.load(0, kFill, 8, 0).aborted);
    EXPECT_EQ(set0()[2].base, kFill);
    EXPECT_EQ(set0()[3].state, State::Invalid); // reconciled, unused
    EXPECT_EQ(set0()[0].state, State::Exclusive); // nothing evicted
    EXPECT_EQ(set0()[0].base, 0x000u);
}

TEST_F(AllocationFixture, CapacityAbortInsideEvictReturnsNoSlot)
{
    // Latest-version copies carrying live read marks, with no
    // responder anywhere to fold the LRU copy's mark into: evicting
    // it must abort (§5.4), and the fill must report the abort.
    craft({
        {0x000, State::SpecShared, {0, 1}, 1, true},
        {0x100, State::SpecShared, {0, 1}, 2, true},
        {0x200, State::SpecShared, {0, 1}, 3, true},
        {0x300, State::SpecShared, {0, 1}, 4, true},
    });
    AccessResult r = sys.load(0, kFill, 8, 0);
    EXPECT_TRUE(r.aborted);
    EXPECT_EQ(sys.stats().capacityAborts, 1u);
    EXPECT_EQ(sys.abortGen(), 1u);
    for (const Line& l : set0())
        EXPECT_NE(l.base, kFill);
}


// --- loads re-run after a flush they raised ------------------------------

/** Four latest-version S-S copies in set 0 carrying live read marks of
 *  VID @p reader, with no responder anywhere to fold a mark into:
 *  evicting any of them must capacity-abort (§5.4). */
std::vector<Way>
markedLatestCopies(Vid reader)
{
    std::vector<Way> ways;
    for (Addr i = 0; i < 4; ++i)
        ways.push_back({i * kSetStride, State::SpecShared, {0, reader},
                        i + 1, true});
    return ways;
}

/** The way of set 0 holding @p base, or nullptr. */
const Line*
findWay(const std::vector<Line>& set, Addr base)
{
    for (const Line& l : set)
        if (l.state != State::Invalid && l.base == base)
            return &l;
    return nullptr;
}

/** Crafted lines bypass the spec registries, so the flush these tests
 *  raise must scan every line to reach them, as forceFullScan does. */
MachineConfig
fullScan(MachineConfig cfg)
{
    cfg.forceFullScan = true;
    return cfg;
}

class FlushRetryFixture : public AllocationFixture
{
  protected:
    FlushRetryFixture() : AllocationFixture(fullScan(tinyL1Config())) {}
};

TEST_F(FlushRetryFixture, OptionalFillCapacityAbortReRunsTheLoad)
{
    // Core 1 holds VID 1's speculative version of kFill. Core 0's
    // VID-2 read is served by it and asks for an optional S-S copy;
    // the eviction that copy needs capacity-aborts and flushes VID 1's
    // version and the mark the read just planted, yet the read itself
    // completed against pre-flush state. load() re-runs it once on
    // post-flush state: the committed value, a fresh mark, both
    // passes' latency, and no abort reported to the reader.
    sys.memory().write(kFill, 7, 8);
    ASSERT_FALSE(sys.store(1, kFill, 42, 8, 1).aborted);
    craft(markedLatestCopies(1));
    AccessResult r = sys.load(0, kFill, 8, 2);
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.value, 7u);
    EXPECT_TRUE(r.needSla);
    EXPECT_EQ(sys.stats().capacityAborts, 1u);
    EXPECT_EQ(sys.abortGen(), 1u);
    EXPECT_EQ(sys.stats().loads, 2u); // the access and its re-run
    EXPECT_GT(r.latency, sys.config().l1Latency +
                             sys.config().memLatency);
    const Line* l = findWay(set0(), kFill);
    ASSERT_NE(l, nullptr);
    EXPECT_TRUE(isSpec(l->state));
    EXPECT_EQ(l->tag.high, 2u);
    sys.checkInvariants();
}

MachineConfig
tinyBtxConfig()
{
    MachineConfig cfg = tinyL1Config();
    cfg.txMode = TxMode::BestEffort;
    cfg.btxMaxRetries = 1;
    return cfg;
}

class HolderFixture : public AllocationFixture
{
  protected:
    HolderFixture() : AllocationFixture(fullScan(tinyBtxConfig())) {}
};

TEST_F(HolderFixture, HolderLoadRetriesOnceAfterItsOwnFlush)
{
    // One global abort arms the fallback lock; VID 1's load takes it
    // and runs serialized. Its required fill must evict a marked
    // latest copy of VID 3's, so the holder's own access raises a
    // capacity abort. The flush clears every speculative line (the
    // holder has none), and load() retries once: the retry succeeds,
    // keeps the lock, and charges both passes as fallback cycles.
    sys.memory().write(kFill, 9, 8);
    sys.abortAll();
    ASSERT_TRUE(sys.txPolicy().fallbackArmed());
    craft(markedLatestCopies(3));
    AccessResult r = sys.load(0, kFill, 8, 1);
    EXPECT_FALSE(r.aborted);
    EXPECT_EQ(r.value, 9u);
    EXPECT_FALSE(r.needSla);
    EXPECT_TRUE(sys.txPolicy().serializes(1));
    EXPECT_EQ(sys.stats().capacityAborts, 1u);
    EXPECT_EQ(sys.abortGen(), 2u);
    EXPECT_EQ(sys.stats().loads, 2u); // the access and its retry
    EXPECT_EQ(sys.txPolicy().stats().fallbackCycles, r.latency);
    EXPECT_GT(r.latency, 2 * sys.config().l1Latency +
                             sys.config().memLatency);
    const Line* l = findWay(set0(), kFill);
    ASSERT_NE(l, nullptr);
    EXPECT_FALSE(isSpec(l->state));
    sys.checkInvariants();
}

} // namespace
} // namespace hmtx::sim
