/**
 * @file
 * Pins the simulator's allocation-free paths with a counting global
 * operator new: the serving engine's request path (DESIGN.md §15),
 * where a long run may allocate only marginally more than a short
 * one; the serving engine's shared Zipf table, which a second run of
 * the same cell does not build again; a disabled trace asked to
 * record, which allocates nothing; and
 * CacheSystem::restore() after wrong-path loads added shadow marks,
 * which reuses the tables it has. The counters would pick up every
 * host allocation in the process, so these tests live in their own
 * executable.
 *
 * Sanitizer builds interpose their own allocator; the replacement is
 * compiled out there and the test skips.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "core/tx_policy.hh"
#include "kv_serve_smoke.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "sim/trace.hh"
#include "workloads/kv_serve.hh"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HMTX_SANITIZED_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) \
    || __has_feature(undefined_behavior_sanitizer)
#define HMTX_SANITIZED_BUILD 1
#endif
#endif

namespace
{

std::atomic<std::uint64_t> gNewCalls{0};
/** Unaligned operator new calls of exactly gWatchBytes bytes (0 =
 *  none). */
std::atomic<std::size_t> gWatchBytes{0};
std::atomic<std::uint64_t> gWatchedCalls{0};

} // namespace

#ifndef HMTX_SANITIZED_BUILD

// The replacements stay out of line: GCC pairs what it sees of each
// allocation with what it sees of its deallocation, and malloc() or
// free() inlined on one side only reads as a mismatch
// (-Wmismatched-new-delete).
[[gnu::noinline]] void*
operator new(std::size_t n)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (n == gWatchBytes.load(std::memory_order_relaxed))
        gWatchedCalls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void*
operator new(std::size_t n, std::align_val_t al)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

#endif // HMTX_SANITIZED_BUILD

namespace
{

using namespace hmtx;

#ifndef HMTX_SANITIZED_BUILD

/** operator new calls made by one smoke-cell run of @p requests. */
std::uint64_t
allocationsOf(TxMode mode, std::uint64_t requests)
{
    const sim::MachineConfig cfg = kv_smoke::smokeConfig(mode);
    const workloads::KvServeParams p = kv_smoke::smokeParams(requests);
    const std::uint64_t before = gNewCalls.load();
    const workloads::KvServeResult r = workloads::runKvServe(cfg, p);
    const std::uint64_t n = gNewCalls.load() - before;
    kv_smoke::expectClean(r, txModeName(mode));
    return n;
}

#endif // HMTX_SANITIZED_BUILD

// Whatever a run allocates must be setup (caches, rings, index tables
// growing to the working set), not per request: tripling the request
// count may add well under one allocation per ten extra requests.
TEST(KvServeAlloc, RequestPathDoesNotAllocate)
{
#ifdef HMTX_SANITIZED_BUILD
    GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
    constexpr std::uint64_t kShort = 6000, kLong = 18000;
    for (const TxMode mode :
         {TxMode::LazyHmtx, TxMode::EagerHmtx, TxMode::BestEffort,
          TxMode::LimitedSet}) {
        const std::uint64_t few = allocationsOf(mode, kShort);
        const std::uint64_t many = allocationsOf(mode, kLong);
        ASSERT_GT(few, 0u) << "the counting operator new is not linked";
        const double perRequest =
            many > few ? static_cast<double>(many - few) /
                    static_cast<double>(kLong - kShort)
                       : 0.0;
        std::printf("  %-12s %llu allocations at %llu requests, %llu "
                    "at %llu: %.4f per extra request\n",
                    txModeName(mode),
                    static_cast<unsigned long long>(few),
                    static_cast<unsigned long long>(kShort),
                    static_cast<unsigned long long>(many),
                    static_cast<unsigned long long>(kLong), perRequest);
        EXPECT_LT(perRequest, 0.1) << txModeName(mode);
    }
#endif
}

// The Zipf table's CDF is keys doubles. A cell of another theta runs
// first, so the first run of the cell builds its table; the second run
// takes the table the first one built, so nothing of that size is
// allocated again.
TEST(KvServeAlloc, SecondRunOfACellReusesTheZipfTable)
{
#ifdef HMTX_SANITIZED_BUILD
    GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
    const sim::MachineConfig cfg = kv_smoke::smokeConfig(TxMode::LazyHmtx);
    const workloads::KvServeParams p = kv_smoke::smokeParams(500);
    workloads::KvServeParams other = p;
    other.zipfTheta = 0.5;
    kv_smoke::expectClean(workloads::runKvServe(cfg, other), "theta 0.5");
    gWatchBytes = p.keys * sizeof(double);
    kv_smoke::expectClean(workloads::runKvServe(cfg, p), "first run");
    const std::uint64_t first = gWatchedCalls.exchange(0);
    kv_smoke::expectClean(workloads::runKvServe(cfg, p), "second run");
    const std::uint64_t second = gWatchedCalls.exchange(0);
    gWatchBytes = 0;
    EXPECT_GT(first, 0u) << "the first run builds the table";
    EXPECT_EQ(second, 0u);
#endif
}

TEST(TraceAlloc, DisabledTraceDoesNotAllocate)
{
#ifdef HMTX_SANITIZED_BUILD
    GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
    const std::uint64_t before = gNewCalls.load();
    {
        sim::Trace tr;
        tr.record({.when = 1, .vid = 1, .kind = sim::TraceKind::Commit});
        EXPECT_EQ(tr.recorded(), 0u);
    }
    EXPECT_EQ(gNewCalls.load() - before, 0u);
#endif
}

// A snapshot holding one shadow mark is restored after wrong-path
// loads added two more. The memory lines are touched before the
// snapshot, so main memory is restored in place; the first round
// warms whatever else restore() may grow.
TEST(SnapshotAlloc, RestoreAfterWrongPathLoadsDoesNotAllocate)
{
#ifdef HMTX_SANITIZED_BUILD
    GTEST_SKIP() << "sanitizer runtimes replace operator new";
#else
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, sim::MachineConfig{});
    for (const Addr a : {0x1000, 0x2000, 0x3000})
        sys.memory().write(a, 1, 8);
    sys.load(0, 0x1000, 8, 1, /*wrongPath=*/true);
    sim::CacheSystem::Snapshot snap;
    sys.snapshot(snap);
    std::uint64_t n = 0;
    for (int round = 0; round < 2; ++round) {
        sys.load(1, 0x2000, 8, 2, /*wrongPath=*/true);
        sys.load(1, 0x3000, 8, 3, /*wrongPath=*/true);
        const std::uint64_t before = gNewCalls.load();
        sys.restore(snap);
        n = gNewCalls.load() - before;
    }
    EXPECT_EQ(n, 0u);
#endif
}

} // namespace
