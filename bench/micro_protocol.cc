/**
 * @file
 * google-benchmark microbenchmarks of the protocol primitives: the
 * pure version rules (hit predicate, store classification, commit and
 * abort transitions), the cascaded VID comparator, and end-to-end
 * cache-system operations (hits, versioned stores, group commit).
 * These measure the *simulator's* hot paths — useful when extending
 * the model — and sanity-check that the protocol logic is branch-light
 * enough to be credible as single-cycle hardware.
 */

#include <benchmark/benchmark.h>

#include "bench/common.hh"
#include "core/comparator.hh"
#include "core/version_rules.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"

namespace
{

using namespace hmtx;

void
BM_VersionHits(benchmark::State& state)
{
    Vid a = 0;
    for (auto _ : state) {
        a = (a + 1) & 63;
        benchmark::DoNotOptimize(
            versionHits(State::SpecOwned, {2, 7}, a));
        benchmark::DoNotOptimize(
            versionHits(State::SpecModified, {5, 9}, a));
    }
}
BENCHMARK(BM_VersionHits);

void
BM_ClassifyStore(benchmark::State& state)
{
    Vid y = 1;
    for (auto _ : state) {
        y = (y & 63) + 1;
        if (versionHits(State::SpecModified, {1, 63}, y))
            benchmark::DoNotOptimize(
                classifyStore(State::SpecModified, {1, 63}, y));
    }
}
BENCHMARK(BM_ClassifyStore);

void
BM_CommitAbortTransitions(benchmark::State& state)
{
    Vid c = 0;
    for (auto _ : state) {
        c = (c + 1) & 63;
        benchmark::DoNotOptimize(
            commitLine(State::SpecModified, {3, 9}, c, true));
        benchmark::DoNotOptimize(
            abortLine(State::SpecOwned, {0, 9}, c, true));
    }
}
BENCHMARK(BM_CommitAbortTransitions);

void
BM_VidComparator(benchmark::State& state)
{
    VidComparator cmp(6);
    Vid v = 0;
    for (auto _ : state) {
        v = (v + 1) & 63;
        benchmark::DoNotOptimize(cmp.compare(v, (v + 1) & 63));
    }
}
BENCHMARK(BM_VidComparator);

void
BM_CacheL1Hit(benchmark::State& state)
{
    sim::EventQueue eq;
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;
    sim::CacheSystem sys(eq, cfg);
    sys.store(0, 0x1000, 1, 8, 0);
    for (auto _ : state)
        benchmark::DoNotOptimize(sys.load(0, 0x1000, 8, 0));
}
BENCHMARK(BM_CacheL1Hit);

void
BM_SpeculativeStoreChain(benchmark::State& state)
{
    // Builds and commits a fresh version chain per iteration batch:
    // the full NewVersion + group-commit path.
    sim::EventQueue eq;
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;
    sim::CacheSystem sys(eq, cfg);
    for (auto _ : state) {
        for (Vid v = 1; v <= 8; ++v)
            benchmark::DoNotOptimize(
                sys.store(v % 4, 0x2000, v, 8, v));
        for (Vid v = 1; v <= 8; ++v)
            sys.commit(v);
        sys.vidReset();
    }
}
BENCHMARK(BM_SpeculativeStoreChain);

void
BM_UncommittedForwarding(benchmark::State& state)
{
    sim::EventQueue eq;
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;
    sim::CacheSystem sys(eq, cfg);
    for (auto _ : state) {
        sys.store(0, 0x3000, 42, 8, 1);
        benchmark::DoNotOptimize(sys.load(1, 0x3000, 8, 1));
        benchmark::DoNotOptimize(sys.load(2, 0x3000, 8, 2));
        sys.commit(1);
        sys.commit(2);
        sys.vidReset();
    }
}
BENCHMARK(BM_UncommittedForwarding);

void
BM_AbortFlush(benchmark::State& state)
{
    sim::EventQueue eq;
    sim::MachineConfig cfg;
    cfg.l2SizeKB = 256;
    sim::CacheSystem sys(eq, cfg);
    for (auto _ : state) {
        for (unsigned i = 0; i < 32; ++i)
            sys.store(i % 4, 0x4000 + i * 64, i, 8, 1);
        sys.abortAll();
    }
}
BENCHMARK(BM_AbortFlush);

} // namespace

BENCHMARK_MAIN();
