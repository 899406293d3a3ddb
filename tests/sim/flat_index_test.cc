/**
 * @file
 * Differential tests of the flat address tables (sim/flat_index.hh)
 * against std::unordered_map / std::unordered_set. Most keys are
 * chosen so their Fibonacci hash lands in the top sixteenth of the
 * table at every capacity: they pile into long shared probe runs that
 * wrap past the last slot, which is where backward-shift deletion goes
 * wrong if its cyclic home test is off by one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/flat_index.hh"
#include "sim/rng.hh"

namespace hmtx::sim
{
namespace
{

/**
 * Line-aligned keys: @p hot of them hash into the table's last
 * sixteenth (top four hash bits all set) at any capacity, @p cold
 * are spread evenly.
 */
std::vector<Addr>
keyPool(std::size_t hot, std::size_t cold)
{
    std::vector<Addr> keys;
    std::size_t nHot = 0, nCold = 0;
    for (Addr i = 1; nHot < hot || nCold < cold; ++i) {
        const Addr k = i * 64;
        const bool isHot = ((k * 0x9e3779b97f4a7c15ull) >> 60) == 0xf;
        if (isHot && nHot < hot) {
            keys.push_back(k);
            ++nHot;
        } else if (!isHot && nCold < cold) {
            keys.push_back(k);
            ++nCold;
        }
    }
    return keys;
}

template <typename Map, typename Ref>
void
expectSameMap(const Map& got, const Ref& want)
{
    ASSERT_EQ(got.size(), want.size());
    std::size_t seen = 0;
    got.forEach([&](Addr k, std::uint64_t v) {
        auto it = want.find(k);
        ASSERT_NE(it, want.end()) << "stray key " << k;
        EXPECT_EQ(v, it->second) << "key " << k;
        ++seen;
    });
    EXPECT_EQ(seen, want.size());
    for (const auto& [k, v] : want) {
        const std::uint64_t* p = got.find(k);
        ASSERT_NE(p, nullptr) << "lost key " << k;
        EXPECT_EQ(*p, v);
    }
}

TEST(FlatIndex, EmptyTableOwnsNoStorage)
{
    FlatAddrMap<std::uint64_t> m;
    FlatAddrSet s;
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_EQ(s.capacity(), 0u);
    EXPECT_EQ(m.find(64), nullptr);
    EXPECT_FALSE(s.contains(64));
    EXPECT_FALSE(m.erase(64));
    m.clear();
    s.clear();
    EXPECT_EQ(m.capacity(), 0u);
    EXPECT_TRUE(s.insert(0));
    EXPECT_TRUE(s.contains(0)); // key 0 is an ordinary key
    EXPECT_GT(s.capacity(), 0u);
}

// A holder-mask-shaped workload: set and clear mask bits, erase
// entries whose mask empties, erase outright, clear with capacity kept,
// and grow from empty across several doublings.
TEST(FlatIndex, MapMatchesUnorderedMapUnderRandomOps)
{
    const std::vector<Addr> pool = keyPool(600, 3000);
    FlatAddrMap<std::uint64_t> got;
    std::unordered_map<Addr, std::uint64_t> want;
    Rng rng(2024);
    std::size_t maxCap = 0;
    constexpr int kOps = 150000;
    for (int op = 0; op < kOps; ++op) {
        const Addr k = pool[rng.range(pool.size())];
        const std::uint64_t bit = std::uint64_t{1} << rng.range(64);
        const std::uint64_t r = rng.range(100);
        if (r < 35) { // set a bit
            got[k] |= bit;
            want[k] |= bit;
        } else if (r < 60) { // clear a bit, erase on empty
            std::uint64_t* p = got.find(k);
            auto it = want.find(k);
            ASSERT_EQ(p != nullptr, it != want.end());
            if (p) {
                *p &= ~bit;
                it->second &= ~bit;
                if (*p == 0) {
                    EXPECT_TRUE(got.erase(k));
                    want.erase(it);
                }
            }
        } else if (r < 75) { // overwrite
            got[k] = bit | 1;
            want[k] = bit | 1;
        } else if (r < 99) { // erase
            EXPECT_EQ(got.erase(k), want.erase(k) == 1);
        } else if (rng.range(40) == 0) { // rare: clear, keep capacity
            const std::size_t cap = got.capacity();
            got.clear();
            want.clear();
            EXPECT_EQ(got.capacity(), cap);
            EXPECT_TRUE(got.empty());
        }
        ASSERT_EQ(got.size(), want.size()) << "op " << op;
        const std::uint64_t* p = got.find(k);
        auto it = want.find(k);
        ASSERT_EQ(p != nullptr, it != want.end()) << "op " << op;
        if (p) {
            ASSERT_EQ(*p, it->second) << "op " << op;
        }
        maxCap = std::max(maxCap, got.capacity());
        if (op % 5000 == 0)
            expectSameMap(got, want);
    }
    expectSameMap(got, want);
    EXPECT_GE(maxCap, 4096u) << "the run should span several doublings";
}

TEST(FlatIndex, SetMatchesUnorderedSetUnderRandomOps)
{
    const std::vector<Addr> pool = keyPool(500, 3000);
    FlatAddrSet got;
    std::unordered_set<Addr> want;
    Rng rng(77);
    constexpr int kOps = 120000;
    for (int op = 0; op < kOps; ++op) {
        const Addr k = pool[rng.range(pool.size())];
        const std::uint64_t r = rng.range(100);
        if (r < 55) {
            EXPECT_EQ(got.insert(k), want.insert(k).second);
        } else if (r < 99) {
            EXPECT_EQ(got.erase(k), want.erase(k) == 1);
        } else if (rng.range(20) == 0) {
            const std::size_t cap = got.capacity();
            got.clear();
            want.clear();
            EXPECT_EQ(got.capacity(), cap);
        }
        ASSERT_EQ(got.size(), want.size()) << "op " << op;
        ASSERT_EQ(got.contains(k), want.count(k) == 1) << "op " << op;
        if (op % 4000 == 0) {
            std::size_t seen = 0;
            got.forEach([&](Addr a) {
                EXPECT_EQ(want.count(a), 1u);
                ++seen;
            });
            ASSERT_EQ(seen, want.size());
            for (Addr a : want)
                ASSERT_TRUE(got.contains(a)) << "lost key " << a;
        }
    }
}

// Deterministic worst case: six keys homed at the last slot form one
// probe run that wraps past the end, through the homes of two evenly
// spread keys; the run is emptied from the middle outwards.
TEST(FlatIndex, EraseFromMiddleOfWrappingCluster)
{
    const std::vector<Addr> hot = keyPool(6, 2);
    FlatAddrMap<std::uint64_t> m;
    for (std::size_t i = 0; i < hot.size(); ++i)
        m[hot[i]] = i + 1;
    ASSERT_EQ(m.capacity(), 16u);
    std::vector<bool> gone(hot.size(), false);
    for (std::size_t i : {2u, 3u, 6u, 1u, 4u, 0u, 7u, 5u}) {
        ASSERT_TRUE(m.erase(hot[i]));
        gone[i] = true;
        for (std::size_t j = 0; j < hot.size(); ++j) {
            const std::uint64_t* p = m.find(hot[j]);
            if (gone[j]) {
                EXPECT_EQ(p, nullptr) << "key " << j;
            } else {
                ASSERT_NE(p, nullptr) << "key " << j;
                EXPECT_EQ(*p, j + 1) << "key " << j;
            }
        }
    }
    EXPECT_TRUE(m.empty());
}

} // namespace
} // namespace hmtx::sim
