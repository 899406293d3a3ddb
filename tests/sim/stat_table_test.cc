/**
 * @file
 * Tests of the stats field tables (core/stat_table.hh): every table
 * names each member once under a unique report name, and accumulate()
 * sums counters and maxes high-water marks. Completeness (the entries
 * account for the whole struct) is a static_assert after each struct.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "check/explorer.hh"
#include "sim/stats.hh"

namespace hmtx
{
namespace
{

/** Names and members of @p S's table are unique and non-empty. */
template <typename S>
void
expectUniqueEntries(std::set<std::string>& reportNames)
{
    std::set<std::string> names;
    const auto& table = S::kFields;
    for (std::size_t i = 0; i < std::size(table); ++i) {
        ASSERT_NE(table[i].name, nullptr);
        EXPECT_NE(std::string(table[i].name), "");
        EXPECT_NE(std::string(table[i].desc), "") << table[i].name;
        EXPECT_TRUE(names.insert(table[i].name).second)
            << "duplicate name " << table[i].name;
        EXPECT_TRUE(reportNames.insert(table[i].name).second)
            << "name used by two tables: " << table[i].name;
        for (std::size_t j = 0; j < i; ++j)
            EXPECT_FALSE(table[i].member == table[j].member)
                << table[i].name << " and " << table[j].name
                << " name the same member";
    }
}

TEST(StatTable, NamesAndMembersAreUnique)
{
    // The four StatsReport tables share one row namespace.
    std::set<std::string> report;
    expectUniqueEntries<sim::SysStats>(report);
    expectUniqueEntries<sim::IndexStats>(report);
    expectUniqueEntries<TxModeStats>(report);
    expectUniqueEntries<sim::ServeStats>(report);
    std::set<std::string> mc;
    expectUniqueEntries<check::ExploreStats>(mc);
}

TEST(StatTable, OnlyTheSetSizeMaximumIsAHighWaterMark)
{
    for (const auto& f : sim::SysStats::kFields)
        EXPECT_EQ(f.kind == StatKind::HighWater,
                  f.member == &sim::SysStats::maxCombinedSetLines)
            << f.name;
}

TEST(StatTable, AccumulateSumsCountersAndMaxesHighWater)
{
    sim::SysStats a, b;
    // Give every field a distinct value so a field the table skipped
    // or summed twice shows up.
    std::uint64_t v = 1;
    for (const auto& f : sim::SysStats::kFields) {
        a.*f.member = v;
        b.*f.member = 100 * v;
        ++v;
    }
    b.maxCombinedSetLines = 7;
    a.maxCombinedSetLines = 9;
    const sim::SysStats before = a;
    accumulate(a, b);
    for (const auto& f : sim::SysStats::kFields) {
        if (f.kind == StatKind::HighWater)
            continue;
        EXPECT_EQ(a.*f.member, before.*f.member + b.*f.member) << f.name;
    }
    EXPECT_EQ(a.maxCombinedSetLines, 9u);
    b.maxCombinedSetLines = 12;
    accumulate(a, b);
    EXPECT_EQ(a.maxCombinedSetLines, 12u);
    EXPECT_EQ(a.loads, 1u + 2 * 100u);
}

TEST(StatTable, AccumulateLeavesFieldsOutsideTheTable)
{
    check::ExploreStats a, b;
    b.explored = 3;
    b.envAborts = 1;
    b.budgetExhausted = true;
    accumulate(a, b);
    accumulate(a, b);
    EXPECT_EQ(a.explored, 6u);
    EXPECT_EQ(a.envAborts, 2u);
    EXPECT_FALSE(a.budgetExhausted);

    sim::ServeStats s, t;
    t.requests = 4;
    t.latency.record(10);
    accumulate(s, t);
    EXPECT_EQ(s.requests, 4u);
    EXPECT_EQ(s.latency.count(), 0u);
}

TEST(StatTable, CoverageMergeGoesThroughTheTables)
{
    check::Coverage a, b;
    b.schedules = 2;
    b.ops = 50;
    b.sys.commits = 4;
    b.sys.maxCombinedSetLines = 6;
    b.tx.fallbackEntries = 3;
    a.sys.maxCombinedSetLines = 8;
    a.merge(b);
    a.merge(b);
    EXPECT_EQ(a.schedules, 4u);
    EXPECT_EQ(a.ops, 100u);
    EXPECT_EQ(a.sys.commits, 8u);
    EXPECT_EQ(a.sys.maxCombinedSetLines, 8u);
    EXPECT_EQ(a.tx.fallbackEntries, 6u);
}

} // namespace
} // namespace hmtx
