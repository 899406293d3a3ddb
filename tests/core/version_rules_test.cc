/**
 * @file
 * Exhaustive tests of the HMTX version rules (§4.1-§4.4): the hit
 * predicate, store classification, and the commit (Figure 6), abort
 * (Figure 7) and VID-reset (§4.6) transitions.
 */

#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <vector>

#include "core/version_rules.hh"

namespace hmtx
{
namespace
{

TEST(VersionHits, NonSpeculativeStatesHitAnyVid)
{
    for (State st : {State::Shared, State::Exclusive, State::Owned,
                     State::Modified}) {
        for (Vid a : {0u, 1u, 5u, 63u})
            EXPECT_TRUE(versionHits(st, {0, 0}, a)) << stateName(st);
    }
    EXPECT_FALSE(versionHits(State::Invalid, {0, 0}, 0));
}

TEST(VersionHits, SpecLatestHitsAtOrAboveModVid)
{
    // S-M(m,h): hit iff a >= m (§4.1).
    VersionTag t{3, 5};
    for (State st : {State::SpecModified, State::SpecExclusive}) {
        EXPECT_FALSE(versionHits(st, t, 0));
        EXPECT_FALSE(versionHits(st, t, 2));
        EXPECT_TRUE(versionHits(st, t, 3));
        EXPECT_TRUE(versionHits(st, t, 5));
        EXPECT_TRUE(versionHits(st, t, 63));
    }
}

TEST(VersionHits, SpecSupersededHitsInHalfOpenRange)
{
    // S-O(m,h): hit iff m <= a < h (§4.1).
    VersionTag t{2, 6};
    for (State st : {State::SpecOwned, State::SpecShared}) {
        EXPECT_FALSE(versionHits(st, t, 1));
        EXPECT_TRUE(versionHits(st, t, 2));
        EXPECT_TRUE(versionHits(st, t, 5));
        EXPECT_FALSE(versionHits(st, t, 6));
        EXPECT_FALSE(versionHits(st, t, 7));
    }
}

TEST(VersionHits, PristineVersionRange)
{
    // S-O(0, y) retains the pre-speculation data for accesses below
    // the superseding write's VID y (§4.2).
    VersionTag t{0, 3};
    EXPECT_TRUE(versionHits(State::SpecOwned, t, 0));
    EXPECT_TRUE(versionHits(State::SpecOwned, t, 2));
    EXPECT_FALSE(versionHits(State::SpecOwned, t, 3));
}

/**
 * Parameterized sweep: the hit ranges of a well-formed version chain
 * S-O(0,3), S-O(3,7), S-M(7,7) must partition [0, maxVid] with no
 * overlaps and no gaps, which is what makes "requests only hit on one
 * version" (§4.1) true.
 */
class ChainCoverage : public ::testing::TestWithParam<Vid>
{};

TEST_P(ChainCoverage, ExactlyOneVersionHits)
{
    Vid a = GetParam();
    int hits = 0;
    hits += versionHits(State::SpecOwned, {0, 3}, a) ? 1 : 0;
    hits += versionHits(State::SpecOwned, {3, 7}, a) ? 1 : 0;
    hits += versionHits(State::SpecModified, {7, 7}, a) ? 1 : 0;
    EXPECT_EQ(hits, 1) << "request VID " << a;
}

INSTANTIATE_TEST_SUITE_P(AllVids, ChainCoverage,
                         ::testing::Range<Vid>(0, 64));

TEST(ClassifyStore, OwnVersionWritesInPlace)
{
    EXPECT_EQ(classifyStore(State::SpecModified, {4, 4}, 4),
              StoreAction::InPlace);
}

TEST(ClassifyStore, LaterStoreCreatesNewVersion)
{
    EXPECT_EQ(classifyStore(State::SpecModified, {2, 2}, 5),
              StoreAction::NewVersion);
    EXPECT_EQ(classifyStore(State::SpecExclusive, {0, 3}, 3),
              StoreAction::NewVersion);
    // First write to a non-speculative line.
    EXPECT_EQ(classifyStore(State::Modified, {0, 0}, 1),
              StoreAction::NewVersion);
    EXPECT_EQ(classifyStore(State::Exclusive, {0, 0}, 7),
              StoreAction::NewVersion);
}

TEST(ClassifyStore, StoreBelowHighVidAborts)
{
    // A later VID already read the version: flow-dependence violation
    // (§4.3).
    EXPECT_EQ(classifyStore(State::SpecModified, {2, 6}, 4),
              StoreAction::Abort);
    EXPECT_EQ(classifyStore(State::SpecExclusive, {0, 6}, 3),
              StoreAction::Abort);
}

TEST(ClassifyStore, StoreHittingSupersededVersionAborts)
{
    // The hit itself proves a later write superseded this version
    // (§4.2: "speculative writes that hit this version trigger an
    // abort").
    EXPECT_EQ(classifyStore(State::SpecOwned, {0, 6}, 3),
              StoreAction::Abort);
    EXPECT_EQ(classifyStore(State::SpecOwned, {2, 6}, 4),
              StoreAction::Abort);
}

TEST(ClassifyStore, SameVidStoreAfterHigherReadAborts)
{
    // Re-entering a version is only allowed while no higher VID has
    // touched it.
    EXPECT_EQ(classifyStore(State::SpecModified, {4, 9}, 4),
              StoreAction::Abort);
}

// --- Commit transitions (Figure 6) ------------------------------------

TEST(CommitLine, FullyCommittedLatestVersionRetires)
{
    EXPECT_EQ(commitLine(State::SpecModified, {3, 3}, 3, true),
              (LineTransition{State::Modified, {}}));
    EXPECT_EQ(commitLine(State::SpecExclusive, {0, 3}, 3, false),
              (LineTransition{State::Exclusive, {}}));
}

TEST(CommitLine, SupersededVersionsInvalidateOnceAccessorsCommit)
{
    EXPECT_EQ(commitLine(State::SpecOwned, {0, 2}, 2, true),
              (LineTransition{State::Invalid, {}}));
    EXPECT_EQ(commitLine(State::SpecShared, {1, 2}, 5, false),
              (LineTransition{State::Invalid, {}}));
}

TEST(CommitLine, CommittedModClearsWhileAccessorsOutstanding)
{
    // S-M(2,5) after commit of 2: modification is committed but VID 5
    // is still live, so only modVID clears (Figure 6).
    EXPECT_EQ(commitLine(State::SpecModified, {2, 5}, 2, true),
              (LineTransition{State::SpecModified, {0, 5}}));
    EXPECT_EQ(commitLine(State::SpecOwned, {2, 5}, 3, true),
              (LineTransition{State::SpecOwned, {0, 5}}));
}

TEST(CommitLine, UncommittedLinesUnchanged)
{
    EXPECT_EQ(commitLine(State::SpecModified, {4, 6}, 2, true),
              (LineTransition{State::SpecModified, {4, 6}}));
    EXPECT_EQ(commitLine(State::SpecExclusive, {0, 6}, 2, false),
              (LineTransition{State::SpecExclusive, {0, 6}}));
}

TEST(CommitLine, NonSpecLinesUntouched)
{
    EXPECT_EQ(commitLine(State::Modified, {0, 0}, 9, true),
              (LineTransition{State::Modified, {0, 0}}));
}

// --- Abort transitions (Figure 7) --------------------------------------

TEST(AbortLine, UncommittedModificationsFlush)
{
    EXPECT_EQ(abortLine(State::SpecModified, {4, 4}, 2, true),
              (LineTransition{State::Invalid, {}}));
    EXPECT_EQ(abortLine(State::SpecOwned, {4, 7}, 2, true),
              (LineTransition{State::Invalid, {}}));
}

TEST(AbortLine, CommittedDataSurvivesWithClearedTags)
{
    // modVID == 0: the data is committed; only the speculative
    // marking clears (Figure 7).
    EXPECT_EQ(abortLine(State::SpecModified, {0, 5}, 2, true),
              (LineTransition{State::Modified, {}}));
    EXPECT_EQ(abortLine(State::SpecExclusive, {0, 5}, 2, false),
              (LineTransition{State::Exclusive, {}}));
    EXPECT_EQ(abortLine(State::SpecOwned, {0, 5}, 2, true),
              (LineTransition{State::Owned, {}}));
    EXPECT_EQ(abortLine(State::SpecOwned, {0, 5}, 2, false),
              (LineTransition{State::Shared, {}}));
    EXPECT_EQ(abortLine(State::SpecShared, {0, 5}, 2, false),
              (LineTransition{State::Shared, {}}));
}

TEST(AbortLine, CommittedButUnreconciledModRetires)
{
    // S-M(2,2) after commit of 2, then an abort: the line had fully
    // retired logically; the abort must not destroy committed data.
    EXPECT_EQ(abortLine(State::SpecModified, {2, 2}, 2, true),
              (LineTransition{State::Modified, {}}));
    EXPECT_EQ(abortLine(State::SpecOwned, {0, 2}, 2, true),
              (LineTransition{State::Invalid, {}}));
}

TEST(AbortLine, CommittedModWithLiveReaderSurvives)
{
    EXPECT_EQ(abortLine(State::SpecModified, {2, 5}, 2, true),
              (LineTransition{State::Modified, {}}));
}

// --- VID reset (§4.6) ----------------------------------------------------

TEST(ResetLine, LatestVersionsBecomeCommitted)
{
    EXPECT_EQ(resetLine(State::SpecModified, {0, 5}, true),
              (LineTransition{State::Modified, {}}));
    EXPECT_EQ(resetLine(State::SpecExclusive, {0, 5}, false),
              (LineTransition{State::Exclusive, {}}));
}

TEST(ResetLine, SupersededVersionsDie)
{
    EXPECT_EQ(resetLine(State::SpecOwned, {0, 5}, true),
              (LineTransition{State::Invalid, {}}));
    EXPECT_EQ(resetLine(State::SpecShared, {0, 5}, false),
              (LineTransition{State::Invalid, {}}));
}

/**
 * Property: for every speculative state and tag combination, commit
 * with c >= high always produces a non-speculative state, and abort
 * never leaves speculative state behind.
 */
class TransitionSweep
    : public ::testing::TestWithParam<std::tuple<int, Vid, Vid>>
{
  protected:
    static State
    stateOf(int i)
    {
        static const State states[] = {
            State::SpecShared, State::SpecExclusive, State::SpecOwned,
            State::SpecModified};
        return states[i];
    }
};

TEST_P(TransitionSweep, CommitAtHighRetires)
{
    auto [si, m, h] = GetParam();
    State st = stateOf(si);
    if (st == State::SpecExclusive && m != 0)
        GTEST_SKIP() << "S-E always has modVID 0";
    if (m > h)
        GTEST_SKIP() << "modVID never exceeds highVID";
    LineTransition t = commitLine(st, {m, h}, h, true);
    EXPECT_FALSE(isSpec(t.state))
        << stateName(st) << "(" << m << "," << h << ")";
}

TEST_P(TransitionSweep, AbortLeavesNoSpeculativeState)
{
    auto [si, m, h] = GetParam();
    State st = stateOf(si);
    if (st == State::SpecExclusive && m != 0)
        GTEST_SKIP();
    if (m > h)
        GTEST_SKIP();
    for (Vid c : {Vid{0}, Vid{1}, Vid{3}, Vid{7}}) {
        LineTransition t = abortLine(st, {m, h}, c, true);
        EXPECT_FALSE(isSpec(t.state));
        EXPECT_EQ(t.tag, (VersionTag{0, 0}));
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllSpecStates, TransitionSweep,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values<Vid>(0, 1, 3, 7),
                       ::testing::Values<Vid>(0, 1, 3, 7)));

// --- responder rule (CacheSystem::checkInvariants) -------------------

/** The per-VID scan the endpoint evaluation replaces. */
std::optional<Vid>
bruteForceResponderConflict(const std::vector<LineVersion>& live,
                            Vid maxVid)
{
    for (Vid a = 0; a <= maxVid; ++a) {
        Vid mods[2] = {};
        int n = 0;
        for (const LineVersion& v : live) {
            if (!isSpecResponder(v.state))
                continue;
            if (versionHits(v.state, v.tag, a)) {
                if (n < 2)
                    mods[n] = v.tag.mod;
                ++n;
            }
        }
        if (n > 1 && mods[0] != mods[1])
            return a;
    }
    return std::nullopt;
}

TEST(ResponderRule, EndpointsMatchPerVidScanOnRandomLiveSets)
{
    const State states[] = {
        State::Invalid,      State::Shared,        State::Exclusive,
        State::Owned,        State::Modified,      State::SpecShared,
        State::SpecExclusive, State::SpecOwned,    State::SpecModified,
    };
    std::mt19937_64 rng(0x5eed);
    for (unsigned bits : {4u, 6u, 8u}) {
        const Vid maxVid = (Vid{1} << bits) - 1;
        std::uniform_int_distribution<Vid> vid(0, maxVid);
        std::uniform_int_distribution<std::size_t> pick(0, 8);
        std::uniform_int_distribution<std::size_t> size(0, 6);
        int conflicts = 0, clean = 0, threePlus = 0;
        for (int trial = 0; trial < 4000; ++trial) {
            std::vector<LineVersion> live(size(rng));
            std::size_t responders = 0;
            for (LineVersion& v : live) {
                v.state = states[pick(rng)];
                // Narrow the tags on half the trials so versions
                // overlap (and share mods) often.
                const Vid m = vid(rng), h = vid(rng);
                v.tag = trial % 2 ? VersionTag{m % 4, h % 6}
                                  : VersionTag{m, h};
                responders += isSpecResponder(v.state) ? 1 : 0;
            }
            const auto want = bruteForceResponderConflict(live, maxVid);
            ASSERT_EQ(firstResponderConflict(live, maxVid), want)
                << "vidBits " << bits << " trial " << trial;
            (want ? conflicts : clean) += 1;
            threePlus += responders >= 3 ? 1 : 0;
        }
        // The sample must exercise both verdicts and the
        // first-two-mods rule.
        EXPECT_GT(conflicts, 100) << bits;
        EXPECT_GT(clean, 100) << bits;
        EXPECT_GT(threePlus, 100) << bits;
    }
}

TEST(ResponderRule, LegalVersionChainsHold)
{
    const Vid maxVid = 15;
    using V = std::vector<LineVersion>;
    // Superseded S-O(2,5) answers [2,5), its successor S-M(5,5) [5,..].
    EXPECT_FALSE(firstResponderConflict(
        V{{State::SpecOwned, {2, 5}}, {State::SpecModified, {5, 5}}},
        maxVid));
    // Peer copies of one version agree on their mod.
    EXPECT_FALSE(firstResponderConflict(
        V{{State::SpecOwned, {2, 5}}, {State::SpecOwned, {2, 5}},
          {State::SpecModified, {5, 9}}},
        maxVid));
    // S-S copies are not responders.
    EXPECT_FALSE(firstResponderConflict(
        V{{State::SpecShared, {1, 9}}, {State::SpecModified, {3, 3}}},
        maxVid));
    // Only the first two hits are compared: the differing third
    // version never trips the rule.
    EXPECT_FALSE(firstResponderConflict(
        V{{State::SpecModified, {3, 3}}, {State::SpecModified, {3, 3}},
          {State::SpecModified, {4, 4}}},
        maxVid));
    // An overlap that starts beyond maxVid is never requested.
    EXPECT_FALSE(firstResponderConflict(
        V{{State::SpecModified, {2, 2}}, {State::SpecModified, {20, 20}}},
        maxVid));
    EXPECT_FALSE(firstResponderConflict(V{}, maxVid));
}

TEST(ResponderRule, OverlappingDistinctVersionsViolate)
{
    const Vid maxVid = 15;
    using V = std::vector<LineVersion>;
    // Two latest versions: both answer every VID from 5 up.
    EXPECT_EQ(firstResponderConflict(
                  V{{State::SpecModified, {2, 2}},
                    {State::SpecModified, {5, 5}}},
                  maxVid),
              Vid{5});
    // A superseded version whose range runs past its successor's mod.
    EXPECT_EQ(firstResponderConflict(
                  V{{State::SpecOwned, {2, 7}},
                    {State::SpecModified, {5, 5}}},
                  maxVid),
              Vid{5});
    // The differing version listed first makes the first two disagree.
    EXPECT_EQ(firstResponderConflict(
                  V{{State::SpecModified, {4, 4}},
                    {State::SpecModified, {3, 3}},
                    {State::SpecModified, {3, 3}}},
                  maxVid),
              Vid{4});
    // The overlap reaches exactly maxVid.
    EXPECT_EQ(firstResponderConflict(
                  V{{State::SpecExclusive, {0, 3}},
                    {State::SpecModified, {15, 15}}},
                  maxVid),
              Vid{15});
}

} // namespace
} // namespace hmtx
