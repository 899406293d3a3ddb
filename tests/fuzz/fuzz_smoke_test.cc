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

#include <algorithm>
#include <optional>
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

/** Runs six @p cfg schedules on @p m and on fresh matrices of
 *  @p mask: every Divergence and Coverage must be equal. */
void
expectRunsMatchFresh(CellMatrix& m, const FuzzConfig& cfg, unsigned mask,
                     std::uint64_t cfgSeed)
{
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

/** @p c with every knob a retarget resets in place changed: the same
 *  machine structure, another VID width, overflow-table and SLA
 *  setting, best-effort retry budget and limited-set K. */
FuzzConfig
knobTwin(FuzzConfig c)
{
    c.vidBits = c.vidBits == 4 ? 6 : 4;
    c.unboundedSpecSets = !c.unboundedSpecSets;
    c.slaEnabled = !c.slaEnabled;
    c.btxRetries = c.btxRetries == 1 ? 2 : 1;
    if (c.btxThreshold != 0)
        c.btxThreshold = std::max(c.btxThreshold, c.btxRetries);
    c.limitedK = c.limitedK % 3 + 1;
    return c;
}

/**
 * A CellMatrix reused across a sequence of same-config schedules
 * (reset between runs, as the model checker drives it) must return
 * exactly the Divergence and Coverage a fresh runSchedule() returns
 * for each schedule. So must one matrix retargeted across configs:
 * from one config seed's machine to the next (the cells rebuilt) and
 * to each config's knob twin (the cells reset in place).
 */
TEST(FuzzSmoke, ReusedMatrixMatchesFreshRuns)
{
    const std::uint64_t cfgSeeds[] = {3, 4, 7};
    const unsigned masks[] = {kGroupAll, kGroupBtx, kGroupLtd};
    for (std::uint64_t cfgSeed : cfgSeeds) {
        const FuzzConfig cfg = generate(cfgSeed, 1).cfg;
        for (unsigned mask : masks) {
            CellMatrix m(cfg, mask);
            expectRunsMatchFresh(m, cfg, mask, cfgSeed);
        }
    }
    for (unsigned mask : masks) {
        std::optional<CellMatrix> m;
        for (std::uint64_t cfgSeed : cfgSeeds) {
            const FuzzConfig cfg = generate(cfgSeed, 1).cfg;
            for (const FuzzConfig& c : {cfg, knobTwin(cfg)}) {
                if (m)
                    m->retarget(c);
                else
                    m.emplace(c, mask);
                expectRunsMatchFresh(*m, c, mask, cfgSeed);
            }
        }
    }
}

TEST(FuzzSmoke, RetargetRejectsABadConfigUnchanged)
{
    const FuzzConfig cfg = generate(3, 1).cfg;
    CellMatrix m(cfg);
    FuzzConfig bad = knobTwin(cfg);
    bad.limitedK = 0; // the limited-set cells reject K = 0
    EXPECT_THROW(m.retarget(bad), std::invalid_argument);
    // Unchanged: the matrix still takes cfg's schedules, and runs them
    // as a fresh matrix does.
    expectRunsMatchFresh(m, cfg, kGroupAll, 3);
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
