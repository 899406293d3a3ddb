/**
 * @file
 * Pins the serving engine's allocation-free request path (DESIGN.md
 * §15): the global operator new is replaced by a counting one, and a
 * long run may allocate only marginally more than a short one. The
 * counters would pick up every host allocation in the process, so this
 * test lives in its own executable.
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

} // namespace

#ifndef HMTX_SANITIZED_BUILD

void*
operator new(std::size_t n)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

void*
operator new(std::size_t n, std::align_val_t al)
{
    gNewCalls.fetch_add(1, std::memory_order_relaxed);
    const auto a = static_cast<std::size_t>(al);
    if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a))
        return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void
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

} // namespace
