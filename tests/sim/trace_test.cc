/**
 * @file
 * Tests of the typed trace: the ring, the JSON-lines dump, and one
 * CacheSystem scenario per TraceKind asserting the exact record.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"

namespace hmtx::sim
{

void
PrintTo(const TraceRecord& r, std::ostream* os)
{
    *os << kTraceKindNames[static_cast<int>(r.kind)] << "@" << r.when
        << " core " << r.core << " vid " << r.vid << " addr 0x"
        << std::hex << r.addr << std::dec << " " << stateName(r.state)
        << "(" << r.tag.mod << "," << r.tag.high << ")";
}

namespace
{

/** The retained records of @p tr of kind @p k, oldest first. */
std::vector<TraceRecord>
recordsOf(const Trace& tr, TraceKind k)
{
    std::vector<TraceRecord> out;
    tr.forEach([&](const TraceRecord& r) {
        if (r.kind == k)
            out.push_back(r);
    });
    return out;
}

/** Every retained record of @p tr, oldest first. */
std::vector<TraceRecord>
recordsOf(const Trace& tr)
{
    std::vector<TraceRecord> out;
    tr.forEach([&](const TraceRecord& r) { out.push_back(r); });
    return out;
}

TEST(Trace, DisabledByDefaultAndCheap)
{
    Trace tr;
    tr.record({.when = 1, .kind = TraceKind::Commit});
    EXPECT_EQ(tr.recorded(), 0u);
    EXPECT_TRUE(recordsOf(tr).empty());
}

TEST(Trace, RecordsInOrder)
{
    Trace tr(true);
    const TraceRecord a{.when = 10, .vid = 3, .kind = TraceKind::Commit};
    const TraceRecord b{.when = 11, .kind = TraceKind::VidReset};
    tr.record(a);
    tr.record(b);
    EXPECT_EQ(tr.recorded(), 2u);
    EXPECT_EQ(recordsOf(tr), (std::vector<TraceRecord>{a, b}));
}

TEST(Trace, RingDropsOldestBeyondCapacity)
{
    Trace tr(true);
    constexpr std::size_t kN = Trace::kCapacity + 6;
    for (std::size_t i = 0; i < kN; ++i)
        tr.record({.when = i, .kind = TraceKind::Commit});
    EXPECT_EQ(tr.recorded(), kN);
    const std::vector<TraceRecord> got = recordsOf(tr);
    ASSERT_EQ(got.size(), Trace::kCapacity);
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(got[i].when, i + 6) << "record " << i;
}

TEST(Trace, ResetClearsTheRing)
{
    Trace tr(true);
    tr.record({.when = 1, .kind = TraceKind::Commit});
    tr.reset(false);
    tr.record({.when = 2, .kind = TraceKind::Commit});
    EXPECT_EQ(tr.recorded(), 0u);
    EXPECT_TRUE(recordsOf(tr).empty());
    tr.reset(true);
    tr.record({.when = 3, .kind = TraceKind::Commit});
    EXPECT_EQ(recordsOf(tr),
              (std::vector<TraceRecord>{
                  {.when = 3, .kind = TraceKind::Commit}}));
}

TEST(Trace, DumpWritesOneJsonObjectPerLine)
{
    Trace tr(true);
    tr.record({.when = 42,
               .addr = 0x1c0,
               .core = 1,
               .vid = 3,
               .tag = {3, 5},
               .kind = TraceKind::Abort,
               .state = State::SpecOwned});
    tr.record({.when = 43, .kind = TraceKind::VidReset});
    std::FILE* f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    tr.dump(f);
    std::rewind(f);
    std::string text;
    for (int ch; (ch = std::fgetc(f)) != EOF;)
        text.push_back(static_cast<char>(ch));
    std::fclose(f);
    EXPECT_EQ(text,
              "{\"when\":42,\"kind\":\"abort\",\"core\":1,\"vid\":3,"
              "\"addr\":\"0x1c0\",\"state\":\"S-O\",\"mod\":3,"
              "\"high\":5}\n"
              "{\"when\":43,\"kind\":\"vid_reset\",\"core\":0,\"vid\":0,"
              "\"addr\":\"0x0\",\"state\":\"I\",\"mod\":0,\"high\":0}\n");
}

MachineConfig
withTrace(MachineConfig cfg)
{
    cfg.traceEnabled = true;
    return cfg;
}

/** A traced system on @p cfg's machine. */
struct Traced
{
    explicit Traced(const MachineConfig& cfg = {})
        : sys(eq, withTrace(cfg))
    {}

    EventQueue eq;
    CacheSystem sys;
};

/** A cold new version, then its commit. */
TEST(Trace, CacheSystemEmitsProtocolEvents)
{
    Traced t;
    t.sys.store(2, 0x100, 1, 8, 1);
    const Tick stored = t.eq.curTick();
    t.sys.commit(1);
    EXPECT_EQ(recordsOf(t.sys.trace()),
              (std::vector<TraceRecord>{
                  {.when = stored,
                   .addr = 0x100,
                   .core = 2,
                   .vid = 1,
                   .tag = {1, 1},
                   .kind = TraceKind::ColdNewVersion,
                   .state = State::SpecModified},
                  {.when = t.eq.curTick(),
                   .vid = 1,
                   .kind = TraceKind::Commit}}));
}

TEST(TraceSites, NewVersionSupersedes)
{
    Traced t;
    t.sys.store(0, 0x100, 1, 8, 1);
    t.sys.store(1, 0x100, 2, 8, 2);
    EXPECT_EQ(recordsOf(t.sys.trace(), TraceKind::NewVersion),
              (std::vector<TraceRecord>{
                  {.when = t.eq.curTick(),
                   .addr = 0x100,
                   .core = 1,
                   .vid = 2,
                   .tag = {2, 2},
                   .kind = TraceKind::NewVersion,
                   .state = State::SpecModified}}));
}

/** An abort names the line that caused it. */
TEST(Trace, AbortsAreTraced)
{
    MachineConfig cfg;
    cfg.slaEnabled = false; // the load marks the line at once
    Traced t(cfg);
    t.sys.load(0, 0x200, 8, 3);
    ASSERT_TRUE(t.sys.store(1, 0x200, 1, 8, 2).aborted); // flow violation
    EXPECT_EQ(recordsOf(t.sys.trace(), TraceKind::Abort),
              (std::vector<TraceRecord>{
                  {.when = t.eq.curTick(),
                   .addr = 0x200,
                   .tag = {0, 3},
                   .kind = TraceKind::Abort,
                   .state = State::SpecExclusive}}));
}

TEST(TraceSites, SlaMismatchAbortsWithoutAnOffendingLine)
{
    Traced t;
    const std::uint64_t seen = t.sys.load(0, 0x300, 8, 2).value;
    // Another thread of the same transaction changes the value before
    // the load's SLA arrives.
    t.sys.store(1, 0x300, seen + 7, 8, 2);
    ASSERT_FALSE(t.sys.slaConfirm(0, {.addr = 0x300, .vid = 2,
                                      .value = seen, .size = 8}));
    EXPECT_EQ(recordsOf(t.sys.trace(), TraceKind::SlaMismatch),
              (std::vector<TraceRecord>{
                  {.when = t.eq.curTick(),
                   .addr = 0x300,
                   .core = 0,
                   .vid = 2,
                   .kind = TraceKind::SlaMismatch}}));
    EXPECT_EQ(recordsOf(t.sys.trace(), TraceKind::Abort),
              (std::vector<TraceRecord>{
                  {.when = t.eq.curTick(), .kind = TraceKind::Abort}}));
}

TEST(TraceSites, VidReset)
{
    Traced t;
    t.sys.store(0, 0x100, 1, 8, 1);
    t.sys.commit(1);
    t.sys.vidReset();
    EXPECT_EQ(recordsOf(t.sys.trace(), TraceKind::VidReset),
              (std::vector<TraceRecord>{
                  {.when = t.eq.curTick(), .kind = TraceKind::VidReset}}));
}

TEST(TraceSites, SpillToTheOverflowTable)
{
    MachineConfig cfg;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 2;
    cfg.l2Assoc = 2;
    cfg.unboundedSpecSets = true;
    Traced t(cfg);
    // Lines that all land in set 0 of the L1s and the L2.
    const Addr stride =
        2 * std::max(cfg.l1Sets(), cfg.l2Sets()) * kLineBytes;
    for (unsigned i = 0; i < 6; ++i)
        ASSERT_FALSE(t.sys.store(0, 0x100000 + i * stride, i, 8, 1).aborted);
    const std::vector<TraceRecord> spills =
        recordsOf(t.sys.trace(), TraceKind::Spill);
    ASSERT_EQ(spills.size(), t.sys.stats().specSpills);
    ASSERT_FALSE(spills.empty());
    EXPECT_EQ(spills.front(),
              (TraceRecord{.when = t.eq.curTick(),
                           .addr = 0x100000,
                           .tag = {1, 1},
                           .kind = TraceKind::Spill,
                           .state = State::SpecModified}));
}

} // namespace
} // namespace hmtx::sim
