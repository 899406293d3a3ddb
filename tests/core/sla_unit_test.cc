/**
 * @file
 * Tests of the SLA buffer (§5.1).
 */

#include <gtest/gtest.h>

#include "core/sla.hh"

namespace hmtx
{
namespace
{

TEST(SlaUnit, BuffersAndDrains)
{
    SlaUnit u(4);
    u.push({0x100, 2, 42, 8});
    u.push({0x140, 2, 7, 4});
    EXPECT_EQ(u.size(), 2u);

    const auto& buffered = u.entries();
    ASSERT_EQ(buffered.size(), 2u);
    EXPECT_EQ(buffered[0].addr, 0x100u);
    EXPECT_EQ(buffered[0].value, 42u);
    EXPECT_EQ(buffered[1].vid, 2u);
    u.drain();
    EXPECT_EQ(u.size(), 0u);
    EXPECT_EQ(u.sent(), 2u);
}

TEST(SlaUnit, SquashDropsWithoutSending)
{
    // A branch misprediction squashes the loads; their SLAs must never
    // reach the cache system — that is the whole point of §5.1.
    SlaUnit u(4);
    u.push({0x100, 3, 1, 8});
    u.push({0x180, 3, 2, 8});
    EXPECT_EQ(u.squash(), 2u);
    EXPECT_EQ(u.size(), 0u);
    EXPECT_EQ(u.sent(), 0u);
    EXPECT_EQ(u.squashed(), 2u);
}

TEST(SlaUnit, CapacityIsEnforcedByCaller)
{
    SlaUnit u(2);
    u.push({0x0, 1, 0, 8});
    EXPECT_FALSE(u.full());
    u.push({0x40, 1, 0, 8});
    EXPECT_TRUE(u.full());
}

TEST(SlaUnit, CountsAccumulateAcrossBatches)
{
    SlaUnit u(8);
    u.push({0x0, 1, 0, 8});
    u.drain();
    u.push({0x40, 2, 0, 8});
    u.squash();
    u.push({0x80, 3, 0, 8});
    u.drain();
    EXPECT_EQ(u.enqueued(), 3u);
    EXPECT_EQ(u.sent(), 2u);
    EXPECT_EQ(u.squashed(), 1u);
}

} // namespace
} // namespace hmtx
