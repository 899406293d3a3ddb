/**
 * @file
 * Cross-fabric differential testing of the Interconnect seam: the
 * HMTX version rules are fabric-independent, so an identical access
 * stream driven through a SnoopBus system and a DirectoryFabric
 * system must produce identical *functional* results — per-access
 * values and outcomes, memory images, abort generations, commit
 * watermarks, and every architectural statistic except the
 * directory's own lookup counter. Only timing (latency, which never
 * feeds back into raw streams) may differ.
 *
 * The same stream traces also check that simulations sharded across
 * host threads stay independent of one another.
 *
 * Also exercises the numCores-parametric orchestration: 8-, 16- and
 * 32-core machines must run fig8-style parallel workloads to
 * completion on both fabrics with matching checksums.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <random>
#include <thread>
#include <tuple>
#include <vector>

#include "runtime/executors.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "workloads/stress.hh"

namespace hmtx
{
namespace
{

/** Full memory image as an ordered map for direct comparison. */
std::map<Addr, sim::LineData>
memImage(sim::CacheSystem& sys)
{
    std::map<Addr, sim::LineData> img;
    sys.memory().forEachLine(
        [&](Addr a, const sim::LineData& d) { img[a] = d; });
    return img;
}

/** Stats with the fabric-specific lookup counter masked out. */
sim::SysStats
fabricNeutral(const sim::SysStats& s)
{
    sim::SysStats n = s;
    n.dirLookups = 0; // the only counter the fabric choice may change
    return n;
}

/** One step of a protocol stream as one system saw it. */
struct OpRecord
{
    Vid lcVid = 0;
    std::uint64_t abortGen = 0;
    std::uint64_t value = 0;
    bool aborted = false;
    bool l1Hit = false;
    bool needSla = false;

    bool operator==(const OpRecord&) const = default;
};

/** Everything a stream lets the caller observe of one system. */
struct StreamTrace
{
    /** One record per step, then the final state. */
    std::vector<OpRecord> ops;
    std::map<Addr, sim::LineData> memory;
    sim::SysStats stats;
};

/**
 * Drives a seeded randomized protocol stream into @p sys and records
 * every functional outcome. Latency is deliberately NOT recorded: that
 * is exactly what the fabrics own. The stream stays legal by
 * construction: commits are consecutive, vidReset only runs when all
 * VIDs used since the last reset have committed or aborted. Ends with
 * an abort + flush so the final memory image is complete.
 */
StreamTrace
traceStream(sim::CacheSystem& sys, std::uint64_t seed, unsigned ops)
{
    std::mt19937_64 rng(seed);
    auto rnd = [&](std::uint64_t n) { return rng() % n; };

    const Vid maxVid = 48; // stay clear of the wrap guard
    const unsigned cores = sys.config().numCores;
    bool outstanding = false;
    StreamTrace t;

    for (unsigned i = 0; i < ops; ++i) {
        OpRecord& r = t.ops.emplace_back();
        r.lcVid = sys.lcVid();
        r.abortGen = sys.abortGen();
        const Vid lc = sys.lcVid();
        const unsigned kind = rnd(100);
        const CoreId core = CoreId(rnd(cores));
        const Addr addr = 0x1000 + rnd(96) * 64 + rnd(8) * 8;

        if (kind < 40) { // speculative access in the open window
            const Vid vid = Vid(lc + 1 + rnd(4));
            if (vid > maxVid)
                continue;
            outstanding = true;
            const sim::AccessResult a = rnd(2)
                ? sys.load(core, addr, 8, vid)
                : sys.store(core, addr, rng(), 8, vid);
            r.value = a.value;
            r.aborted = a.aborted;
            r.l1Hit = a.l1Hit;
            r.needSla = a.needSla;
        } else if (kind < 70) { // non-speculative access
            const sim::AccessResult a = rnd(2)
                ? sys.load(core, addr, 8, 0)
                : sys.store(core, addr, rng(), 8, 0);
            r.value = a.value;
            r.aborted = a.aborted;
        } else if (kind < 85) { // commit the next VID
            if (lc + 1 > maxVid)
                continue;
            sys.commit(Vid(lc + 1));
        } else if (kind < 92) { // global abort
            sys.abortAll();
            outstanding = false;
        } else { // drain the window and reset
            if (outstanding)
                continue; // uncommitted spec VIDs may be live
            if (sys.lcVid() != 0)
                sys.vidReset();
        }
        // A committed-past-the-window stream ends the round early.
        if (sys.lcVid() >= maxVid) {
            sys.abortAll();
            sys.vidReset();
            outstanding = false;
        }
    }

    sys.abortAll();
    sys.flushDirtyToMemory();
    OpRecord& end = t.ops.emplace_back();
    end.lcVid = sys.lcVid();
    end.abortGen = sys.abortGen();
    t.memory = memImage(sys);
    t.stats = sys.stats();
    sys.checkInvariants();
    return t;
}

/** Functional outcomes of two traces must match step by step.
 *  Statistics are left to the caller. */
void
expectSameTrace(const StreamTrace& a, const StreamTrace& b)
{
    const std::size_t n = std::min(a.ops.size(), b.ops.size());
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_TRUE(a.ops[i] == b.ops[i]) << "op " << i;
    ASSERT_EQ(a.ops.size(), b.ops.size());
    EXPECT_EQ(a.memory, b.memory);
}

/** Cross-fabric differential: everything but the directory's own
 *  lookup counter must match. */
void
runFabricDifferential(sim::CacheSystem& a, sim::CacheSystem& b,
                      std::uint64_t seed, unsigned ops)
{
    const StreamTrace ta = traceStream(a, seed, ops);
    const StreamTrace tb = traceStream(b, seed, ops);
    expectSameTrace(ta, tb);
    EXPECT_TRUE(fabricNeutral(ta.stats) == fabricNeutral(tb.stats));
    EXPECT_GT(tb.stats.dirLookups, 0u)
        << "the directory fabric must actually have been exercised";
    EXPECT_EQ(ta.stats.dirLookups, 0u)
        << "the snoop bus must never consult a directory";
}

class FabricDifferential
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(FabricDifferential, RandomStreamMatchesAcrossFabrics)
{
    sim::MachineConfig snoop;
    snoop.l2SizeKB = 256;
    sim::MachineConfig dir = snoop;
    dir.fabric = sim::Fabric::Directory;
    dir.dirBanks = 8;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, snoop);
    sim::CacheSystem b(eqb, dir);
    runFabricDifferential(a, b, GetParam(), 3000);
}

TEST_P(FabricDifferential, EightCoreStreamMatchesAcrossFabrics)
{
    // Wider machine: more L1s in the snoop set, more directory
    // sharers — the functional results must still be identical.
    sim::MachineConfig snoop;
    snoop.numCores = 8;
    snoop.l2SizeKB = 256;
    sim::MachineConfig dir = snoop;
    dir.fabric = sim::Fabric::Directory;
    dir.dirBanks = 16;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, snoop);
    sim::CacheSystem b(eqb, dir);
    runFabricDifferential(a, b, GetParam() * 17 + 3, 2000);
}

TEST_P(FabricDifferential, UnboundedSetsMatchAcrossFabrics)
{
    // Tiny caches + unbounded speculative sets: spills and refills
    // through the overflow table join the differential surface.
    sim::MachineConfig snoop;
    snoop.l1SizeKB = 4;
    snoop.l1Assoc = 2;
    snoop.l2SizeKB = 32;
    snoop.l2Assoc = 4;
    snoop.unboundedSpecSets = true;
    sim::MachineConfig dir = snoop;
    dir.fabric = sim::Fabric::Directory;
    dir.dirBanks = 4;

    sim::EventQueue eqa, eqb;
    sim::CacheSystem a(eqa, snoop);
    sim::CacheSystem b(eqb, dir);
    runFabricDifferential(a, b, GetParam() * 31 + 7, 1500);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FabricDifferential,
                         ::testing::Range<std::uint64_t>(1, 5));

// --- host-sharded runs vs the sequential reference ----------------------

/**
 * Independent simulations sharded across host threads — the way
 * `hmtx_fuzz --threads` splits its batch — must not see one another:
 * every shard's copy of a stream must reproduce the reference trace,
 * every architectural statistic included. Inline drives the copies one
 * after another on the calling thread; threaded drives each on its own
 * host thread, all at once.
 */
void
runShardDifferential(const sim::MachineConfig& cfg, std::uint64_t seed,
                     unsigned ops, unsigned shards, bool threaded)
{
    auto run = [&] {
        sim::EventQueue eq;
        sim::CacheSystem sys(eq, cfg);
        return traceStream(sys, seed, ops);
    };
    const StreamTrace ref = run();

    std::vector<StreamTrace> got(shards);
    std::vector<std::exception_ptr> err(shards);
    auto shard = [&](unsigned s) {
        try {
            got[s] = run();
        } catch (...) {
            err[s] = std::current_exception();
        }
    };
    if (threaded) {
        std::vector<std::thread> pool;
        for (unsigned s = 0; s < shards; ++s)
            pool.emplace_back(shard, s);
        for (std::thread& th : pool)
            th.join();
    } else {
        for (unsigned s = 0; s < shards; ++s)
            shard(s);
    }
    for (unsigned s = 0; s < shards; ++s) {
        if (err[s])
            std::rethrow_exception(err[s]);
        expectSameTrace(ref, got[s]);
        EXPECT_TRUE(got[s].stats == ref.stats) << "shard " << s;
    }
}

/** (seed, host shards) */
using ShardParam = std::tuple<std::uint64_t, unsigned>;

class ShardDifferential : public ::testing::TestWithParam<ShardParam>
{};

TEST_P(ShardDifferential, SnoopBusStreamMatchesSequentialInline)
{
    const auto [seed, shards] = GetParam();
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;
    runShardDifferential(cfg, seed * 7 + 1, 2500, shards,
                         /*threaded=*/false);
}

TEST_P(ShardDifferential, DirectoryStreamMatchesSequentialThreaded)
{
    const auto [seed, shards] = GetParam();
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;
    cfg.fabric = sim::Fabric::Directory;
    runShardDifferential(cfg, seed * 11 + 5, 2000, shards,
                         /*threaded=*/true);
}

TEST_P(ShardDifferential, UnboundedSetsMatchSequentialThreaded)
{
    // Tiny caches + overflow traffic: spills and refills through the
    // overflow table join the surface.
    const auto [seed, shards] = GetParam();
    sim::MachineConfig cfg;
    cfg.l1SizeKB = 4;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 32;
    cfg.l2Assoc = 4;
    cfg.unboundedSpecSets = true;
    runShardDifferential(cfg, seed * 13 + 2, 1500, shards,
                         /*threaded=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByShards, ShardDifferential,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 4),
                       ::testing::Values(1u, 2u, 4u, 8u)));

// --- numCores-parametric orchestration ----------------------------------

/** Runs the chaos workload on @p cores cores under both fabrics and
 *  checks both complete with the reference checksum. */
void
runManyCores(unsigned cores, bool doall)
{
    workloads::StressWorkload::Params p;
    p.iterations = 4 * cores;
    p.scratchWords = 24;
    p.conflictRate = 0.1;
    p.seed = 13 + cores;

    sim::MachineConfig seqCfg;
    workloads::StressWorkload ws(p);
    runtime::ExecResult seq = runtime::Runner::runSequential(ws, seqCfg);

    for (sim::Fabric f : {sim::Fabric::SnoopBus, sim::Fabric::Directory}) {
        sim::MachineConfig cfg;
        cfg.numCores = cores;
        cfg.fabric = f;
        cfg.dirBanks = 16;
        workloads::StressWorkload w(p);
        runtime::ExecResult r = doall
            ? runtime::Runner::runDoall(w, cfg, cores)
            : runtime::Runner::runPipeline(w, cfg, cores - 1);
        EXPECT_EQ(r.checksum, seq.checksum)
            << cores << " cores, fabric " << int(f);
        EXPECT_EQ(r.stats.idleCores, 0u)
            << "full-width schedules must occupy every core";
        EXPECT_GT(r.transactions, 0u);
    }
}

TEST(ManyCoreOrchestration, EightCoresCompleteOnBothFabrics)
{
    runManyCores(8, /*doall=*/false);
    runManyCores(8, /*doall=*/true);
}

TEST(ManyCoreOrchestration, SixteenCoresCompleteOnBothFabrics)
{
    runManyCores(16, /*doall=*/false);
    runManyCores(16, /*doall=*/true);
}

TEST(ManyCoreOrchestration, ThirtyTwoCoresCompleteOnBothFabrics)
{
    runManyCores(32, /*doall=*/true);
}

TEST(ManyCoreOrchestration, RerunIsDeterministicAcrossSeeds)
{
    // Full-stack determinism: the same parallel workload, run twice
    // under both fabrics, must produce the same checksum and the same
    // architectural stats for every seed.
    for (std::uint64_t seed : {5u, 23u, 71u}) {
        workloads::StressWorkload::Params p;
        p.iterations = 48;
        p.scratchWords = 24;
        p.conflictRate = 0.15;
        p.seed = seed;

        for (sim::Fabric f :
             {sim::Fabric::SnoopBus, sim::Fabric::Directory}) {
            sim::MachineConfig cfg;
            cfg.numCores = 8;
            cfg.fabric = f;
            workloads::StressWorkload w1(p), w2(p);
            runtime::ExecResult a = runtime::Runner::runDoall(w1, cfg, 8);
            runtime::ExecResult b = runtime::Runner::runDoall(w2, cfg, 8);
            EXPECT_EQ(a.checksum, b.checksum) << "seed " << seed;
            EXPECT_EQ(a.cycles, b.cycles) << "seed " << seed;
            EXPECT_TRUE(a.stats == b.stats) << "seed " << seed;
        }
    }
}

TEST(ManyCoreOrchestration, NarrowPipelineReportsIdleCores)
{
    // A 2-stage pipeline with 3 replicated workers on an 8-core
    // machine uses 4 cores; the other 4 must be counted, not silent.
    workloads::StressWorkload::Params p;
    p.iterations = 24;
    p.scratchWords = 16;
    p.conflictRate = 0.0;
    p.seed = 3;

    sim::MachineConfig cfg;
    cfg.numCores = 8;
    workloads::StressWorkload w(p);
    runtime::ExecResult r = runtime::Runner::runPipeline(w, cfg, 3);
    EXPECT_EQ(r.stats.idleCores, 4u);

    // Requests beyond the machine clamp instead of indexing past the
    // thread contexts.
    workloads::StressWorkload w2(p);
    sim::MachineConfig four;
    four.numCores = 4;
    runtime::ExecResult r2 = runtime::Runner::runPipeline(w2, four, 9);
    EXPECT_EQ(r2.stats.idleCores, 0u);
    EXPECT_GT(r2.transactions, 0u);
}

} // namespace
} // namespace hmtx
