/**
 * @file
 * Fixed-seed differential fuzz batch (DESIGN.md §10). Every schedule
 * runs against the golden model and the 4-cell config matrix; any
 * divergence fails the test and prints the full replay file so the
 * failure can be reproduced and shrunk with:
 *
 *   build-release/tests/fuzz/hmtx_fuzz --replay <file>
 *
 * The batch is sized to stay well under 30 s even under ASan+UBSan;
 * the long randomized campaigns live in ci/check.sh.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "check/differ.hh"
#include "check/schedule.hh"

namespace
{

using namespace hmtx;
using namespace hmtx::check;

void
runSeedBlock(std::uint64_t first, std::uint64_t count, unsigned ops)
{
    Coverage cov;
    for (std::uint64_t seed = first; seed < first + count; ++seed) {
        Schedule s = generate(seed, ops);
        Divergence d = runSchedule(s, &cov);
        ASSERT_FALSE(d.found)
            << "seed " << seed << " diverged: " << d.what
            << "\n--- replay file ---\n"
            << serialize(s);
    }
    // The batch must actually exercise the machinery it claims to
    // cover; these floors catch a generator regression that silently
    // stops producing commits/aborts/spills.
    EXPECT_GT(cov.sys.commits, count);
    EXPECT_GT(cov.sys.aborts, count / 4);
    EXPECT_GT(cov.sys.slaConfirms, count / 4);
}

TEST(FuzzSmoke, SeedsBlockA) { runSeedBlock(1, 12, 150); }
TEST(FuzzSmoke, SeedsBlockB) { runSeedBlock(101, 12, 150); }
TEST(FuzzSmoke, SeedsBlockC) { runSeedBlock(201, 12, 150); }
TEST(FuzzSmoke, SeedsBlockD) { runSeedBlock(301, 12, 150); }

TEST(FuzzSmoke, ScheduleRoundTrips)
{
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        Schedule s = generate(seed, 120);
        std::string text = serialize(s);
        Schedule back;
        std::string err;
        ASSERT_TRUE(parse(text, back, err)) << err;
        ASSERT_EQ(back.ops.size(), s.ops.size());
        EXPECT_EQ(serialize(back), text);
    }
}

/**
 * A CellMatrix reused across a sequence of same-config schedules
 * (reset between runs, as the model checker drives it) must return
 * exactly the Divergence and Coverage a fresh runSchedule() returns
 * for each schedule.
 */
TEST(FuzzSmoke, ReusedMatrixMatchesFreshRuns)
{
    for (std::uint64_t cfgSeed : {3u, 4u, 7u}) {
        const FuzzConfig cfg = generate(cfgSeed, 1).cfg;
        for (unsigned mask : {unsigned(kGroupAll), unsigned(kGroupBtx),
                              unsigned(kGroupLtd)}) {
            CellMatrix m(cfg, mask);
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                SCOPED_TRACE("config seed " + std::to_string(cfgSeed) +
                             ", mask " + std::to_string(mask) +
                             ", schedule seed " + std::to_string(seed));
                Schedule s = generate(1000 * cfgSeed + seed, 120);
                s.cfg = cfg;
                for (Op& op : s.ops)
                    op.core %= cfg.numCores;
                Coverage fresh, reused;
                const Divergence df = runSchedule(s, &fresh, mask);
                const Divergence dr = m.run(s, &reused);
                EXPECT_EQ(df.found, dr.found);
                EXPECT_EQ(df.opIndex, dr.opIndex);
                EXPECT_EQ(df.what, dr.what);
                EXPECT_TRUE(fresh == reused) << "Coverage differs";
                EXPECT_EQ(reused.schedules, 1u);
            }
        }
    }
}

TEST(FuzzSmoke, MatrixRejectsForeignConfig)
{
    Schedule s = generate(1, 20);
    FuzzConfig other = s.cfg;
    other.vidBits = s.cfg.vidBits == 4 ? 6 : 4;
    CellMatrix m(other);
    EXPECT_THROW(m.run(s), std::invalid_argument);
}

} // namespace
