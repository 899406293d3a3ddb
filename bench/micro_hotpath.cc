/**
 * @file
 * Microbenchmarks of the simulator's protocol hot paths, comparing
 * the indexed implementation (per-set snoop summaries + speculative
 * line registry) against the pre-index behaviour
 * (MachineConfig::forceFullScan, which walks every cache slot).
 *
 * Two geometries are measured: a small "seed" L2 (256 KB, 4 Ki
 * resident lines) and the paper's Table 2 L2 (32 MB, populated with
 * 64 Ki resident lines). Cache sets materialize slots lazily, so a
 * full scan costs O(resident lines); with the indexes every bulk
 * operation — eager commit, abortAll, vidReset — visits only the
 * handful of speculative/dirty lines regardless of how much clean
 * data the caches hold.
 *
 * Run with --smoke for a fast self-check (used as a ctest): it runs
 * an identical operation script in both modes, asserts the
 * architectural statistics are bit-identical, and asserts the indexed
 * bulk operations are at least 2x faster at Table 2 geometry. It also
 * runs a miss-heavy stream on the serving geometry in both modes and
 * requires identical statistics and clean index and protocol checks
 * (no timing bound there).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>

#include "bench/common.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace
{

using namespace hmtx;

constexpr Addr kSpecBase = 0x100000;
constexpr Addr kBackBase = 0xA00000;

sim::MachineConfig
makeCfg(bool table2, bool fullScan)
{
    sim::MachineConfig cfg; // Table 2 defaults
    if (!table2)
        cfg.l2SizeKB = 256; // small seed-style geometry
    cfg.forceFullScan = fullScan;
    return cfg;
}

/** Clean resident lines to load per geometry (most of the L2). */
unsigned
backgroundLines(bool table2)
{
    return table2 ? 65536 : 4096;
}

/**
 * Fills the L2 with clean non-speculative background lines. These are
 * exactly the lines a full-scan bulk walk wastes time skipping and
 * the registry never holds.
 */
void
populateBackground(sim::CacheSystem& sys, unsigned lines)
{
    for (unsigned i = 0; i < lines; ++i)
        sys.load(0, kBackBase + Addr{i} * 64, 8, 0);
}

/** Issues @p n speculative stores spread over cores and VIDs 1..8. */
void
specStores(sim::CacheSystem& sys, unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        sys.store(i % 4, kSpecBase + Addr{i} * 64, i + 1, 8,
                  1 + (i % 8));
}

// --- benchmarks ------------------------------------------------------------
//
// Args: {table2 geometry (0/1), forceFullScan (0/1)}

void
BM_AbortAll(benchmark::State& state)
{
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), state.range(1)));
    populateBackground(sys, backgroundLines(state.range(0)));
    for (auto _ : state) {
        specStores(sys, 64);
        benchmark::DoNotOptimize(sys.abortAll());
    }
}
BENCHMARK(BM_AbortAll)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void
BM_VidReset(benchmark::State& state)
{
    // Lazy commit (the default): commit() is a cheap watermark bump
    // and the deferred reconcile work lands in vidReset()'s walk.
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), state.range(1)));
    populateBackground(sys, backgroundLines(state.range(0)));
    for (auto _ : state) {
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            sys.commit(v);
        benchmark::DoNotOptimize(sys.vidReset());
    }
}
BENCHMARK(BM_VidReset)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void
BM_VidResetDirtyBg(benchmark::State& state)
{
    // Serving-shaped variant of BM_VidReset: the background lines are
    // dirty *committed* table data (a KV store's working set stays
    // dirty-in-cache for the whole run), not clean fills. Bulk walks
    // must not pay for them — vidReset/commit/abort only act on
    // speculative lines, so with the class-split registry the reset
    // walk scales with the window's speculative footprint, not the
    // dirty working set. Arg: table2 geometry (0/1); indexed mode
    // only (the full-scan cost is BM_VidReset's story).
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), false));
    const unsigned lines = backgroundLines(state.range(0));
    for (unsigned i = 0; i < lines; ++i)
        sys.store(0, kBackBase + Addr{i} * 64, i, 8, 0);
    for (auto _ : state) {
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            sys.commit(v);
        benchmark::DoNotOptimize(sys.vidReset());
    }
}
BENCHMARK(BM_VidResetDirtyBg)
    ->Arg(0)->Arg(1)->Unit(benchmark::kMicrosecond);

void
BM_EagerCommit(benchmark::State& state)
{
    // Naive commit processing (§4.4): every commit walks the caches.
    auto cfg = makeCfg(state.range(0), state.range(1));
    cfg.txMode = TxMode::EagerHmtx;
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, cfg);
    populateBackground(sys, backgroundLines(state.range(0)));
    for (auto _ : state) {
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            benchmark::DoNotOptimize(sys.commit(v));
        sys.vidReset();
    }
}
BENCHMARK(BM_EagerCommit)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void
BM_AccessThroughput(benchmark::State& state)
{
    // Mixed load/store stream over a working set larger than the L1:
    // exercises findLocal, the summary-filtered findRemote/snoop
    // path, fills and evictions.
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, makeCfg(state.range(0), state.range(1)));
    constexpr unsigned kLines = 4096; // 256 KB working set
    Addr a = 0;
    for (auto _ : state) {
        sys.store(a % 4, kBackBase + (a % kLines) * 64, a, 8, 0);
        benchmark::DoNotOptimize(
            sys.load((a + 1) % 4, kBackBase + (a % kLines) * 64, 8,
                     0));
        ++a;
    }
    state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_AccessThroughput)
    ->Args({0, 0})->Args({0, 1})->Args({1, 0})->Args({1, 1});

// --- smoke self-check ------------------------------------------------------

/** One deterministic protocol workout; returns its wall time. */
double
runScript(sim::CacheSystem& sys, unsigned rounds)
{
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned r = 0; r < rounds; ++r) {
        specStores(sys, 64);
        sys.abortAll();
        specStores(sys, 64);
        for (Vid v = 1; v <= 8; ++v)
            sys.commit(v);
        sys.vidReset();
    }
    sys.flushDirtyToMemory();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** kv_serve's machine: 1 KB/2-way L1, 8 KB/8-way L2, spills on. */
sim::MachineConfig
servingCfg(bool fullScan)
{
    sim::MachineConfig cfg;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.vidBits = 8;
    cfg.unboundedSpecSets = true;
    cfg.forceFullScan = fullScan;
    return cfg;
}

/**
 * A seeded miss-heavy load/store/commit stream over 512 lines, 4x the
 * serving L2: nearly every access moves an L1 victim into the L2 and
 * evicts (or spills) an L2 victim — the capacity path the per-set
 * snoop summaries sit on.
 */
void
servingMissStream(sim::CacheSystem& sys)
{
    sim::Rng rng(20);
    const Vid maxV = sys.config().maxVid();
    for (unsigned op = 0; op < 20000; ++op) {
        const Addr a = kBackBase + 64 * rng.range(512);
        const auto core = static_cast<CoreId>(rng.range(4));
        const Vid lc = sys.lcVid();
        const std::uint64_t r = rng.range(100);
        if (lc + 8 > maxV) {
            while (sys.lcVid() < maxV)
                sys.commit(sys.lcVid() + 1);
            sys.vidReset();
        } else if (r < 50) {
            sys.load(core, a, 8, rng.range(2) ? lc + 1 : kNonSpecVid);
        } else if (r < 95) {
            sys.store(core, a, op, 8, lc + 8);
        } else {
            sys.commit(lc + 1);
        }
    }
}

/** Serving-geometry identity check of the indexed and full-scan
 *  snoops; returns 0 when both agree and every check passes. */
int
servingSmoke()
{
    sim::EventQueue eq1, eq2;
    sim::CacheSystem indexed(eq1, servingCfg(false));
    sim::CacheSystem fullScan(eq2, servingCfg(true));
    servingMissStream(indexed);
    servingMissStream(fullScan);
    if (!(indexed.stats() == fullScan.stats())) {
        std::fprintf(stderr,
                     "FAIL: serving-geometry indexed and full-scan "
                     "statistics diverge\n");
        return 1;
    }
    try {
        for (sim::CacheSystem* sys : {&indexed, &fullScan}) {
            sys->verifyIndexes();
            sys->checkInvariants();
        }
    } catch (const std::logic_error& e) {
        std::fprintf(stderr, "FAIL: serving-geometry check: %s\n",
                     e.what());
        return 1;
    }
    const sim::SysStats& st = indexed.stats();
    std::printf("smoke: serving stream OK (%llu L1 misses, %llu "
                "spills, snoop filter rate %.2f)\n",
                static_cast<unsigned long long>(st.l1Misses),
                static_cast<unsigned long long>(st.specSpills),
                indexed.indexStats().snoopFilterRate());
    return 0;
}

int
smoke()
{
    if (servingSmoke() != 0)
        return 1;

    // Table 2 geometry. The cross-check itself is a full scan, so it
    // runs once after the timed section rather than per operation.
    sim::EventQueue eq1, eq2;
    sim::CacheSystem indexed(eq1, makeCfg(true, false));
    sim::CacheSystem fullScan(eq2, makeCfg(true, true));
    populateBackground(indexed, backgroundLines(true));
    populateBackground(fullScan, backgroundLines(true));

    constexpr unsigned kRounds = 50;
    double tIdx = runScript(indexed, kRounds);
    double tFull = runScript(fullScan, kRounds);
    indexed.verifyIndexes();
    fullScan.verifyIndexes();

    if (!(indexed.stats() == fullScan.stats())) {
        std::fprintf(stderr,
                     "FAIL: indexed and full-scan statistics "
                     "diverge\n");
        return 1;
    }
    indexed.checkInvariants();
    fullScan.checkInvariants();

    const double ratio = tFull / tIdx;
    std::printf("smoke: indexed %.3fs, full-scan %.3fs, ratio "
                "%.1fx (snoop filter rate %.2f)\n",
                tIdx, tFull, ratio,
                indexed.indexStats().snoopFilterRate());
    if (ratio < 2.0) {
        std::fprintf(stderr,
                     "FAIL: indexed bulk ops only %.1fx faster than "
                     "full scans (expected >= 2x)\n",
                     ratio);
        return 1;
    }

    std::printf("smoke: OK\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--smoke") == 0)
            return smoke();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    // Build type of *this tree*, not of the benchmark library; the
    // harness gates on it to keep debug timings out of the baselines.
#ifdef HMTX_BUILD_TYPE
    benchmark::AddCustomContext("hmtx_build_type", HMTX_BUILD_TYPE);
#else
    benchmark::AddCustomContext("hmtx_build_type", "unknown");
#endif
    // Commit-mode axis of the measured configs (the hot paths run the
    // lazy default); keeps every BENCH report self-describing.
    {
        const hmtx::sim::MachineConfig cfg = makeCfg(true, false);
        benchmark::AddCustomContext("hmtx_tx_mode",
                                    hmtx::txModeName(cfg.txMode));
        benchmark::AddCustomContext(
            "hmtx_btx_max_retries",
            std::to_string(cfg.btxMaxRetries));
        benchmark::AddCustomContext(
            "hmtx_btx_abort_threshold",
            std::to_string(cfg.btxAbortThreshold));
        benchmark::AddCustomContext(
            "hmtx_limited_set_k", std::to_string(cfg.limitedSetK));
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
