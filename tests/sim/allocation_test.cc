/**
 * @file
 * Tests of CacheSystem's single allocation pass (§5.4): which way a
 * fill takes when its L1 set is full. Each case crafts the four ways
 * of one set of a tiny L1 directly — states, tags and LRU stamps set
 * behind syncLine's back, so the index self-checks are not consulted
 * — then drives an access whose fill must allocate in that set and
 * inspects where it landed.
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
    AllocationFixture() : sys(eq, tinyL1Config()) {}

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

} // namespace
} // namespace hmtx::sim
