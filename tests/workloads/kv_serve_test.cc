/**
 * @file
 * Deterministic smoke tests for the KV/OLTP serving engine
 * (src/workloads/kv_serve.hh): streaming-percentile exactness against
 * a full sort recompute, oracle + accounting invariants across commit
 * modes (also under the index cross-check and forced full scans), and
 * the O(1)-memory discipline of the request path.
 */

#include <algorithm>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/stats.hh"
#include "kv_serve_smoke.hh"
#include "workloads/kv_serve.hh"

namespace
{

using namespace hmtx;
using workloads::KvServeParams;
using workloads::KvServeResult;
using workloads::runKvServe;
using kv_smoke::expectClean;
using kv_smoke::smokeConfig;
using kv_smoke::smokeParams;

// The streaming histogram must agree with a full sort of the same
// samples at every reported percentile: nearest-rank, quantized to
// the sample's bucket floor (sim::LatencyHistogram::bucketFloor).
TEST(KvServe, StreamingPercentilesMatchSortRecompute)
{
    KvServeParams p = smokeParams(4000);
    p.recordLatencies = true;
    const KvServeResult r =
        runKvServe(smokeConfig(TxMode::LazyHmtx), p);
    expectClean(r, "lazy recorded");

    std::vector<std::uint64_t> lat = r.recordedLatencies;
    ASSERT_EQ(lat.size(), p.requests);
    ASSERT_EQ(r.serve.latency.count(), p.requests);
    std::sort(lat.begin(), lat.end());

    for (const double q : {0.5, 0.99, 0.999}) {
        auto rank = static_cast<std::uint64_t>(
            q * static_cast<double>(lat.size()));
        if (static_cast<double>(rank) <
            q * static_cast<double>(lat.size()))
            ++rank; // ceil
        if (rank == 0)
            rank = 1;
        const std::uint64_t exact = lat[rank - 1];
        EXPECT_EQ(r.serve.latency.percentile(q),
                  sim::LatencyHistogram::bucketFloor(exact))
            << "q=" << q;
    }
    EXPECT_EQ(r.serve.latency.max(), lat.back());
    EXPECT_EQ(r.serve.latency.min(), lat.front());
}

/**
 * Runs one smoke cell plain, then twice more: with the index
 * cross-check after every bulk operation and with the indexes bypassed
 * by full scans. The serving path churns the set summaries, the rw
 * sets and the overflow table harder than any other workload; both
 * variants must reproduce the plain run exactly.
 */
KvServeResult
runCrossChecked(TxMode mode, std::uint64_t requests, const char* what)
{
    const KvServeResult plain =
        runKvServe(smokeConfig(mode), smokeParams(requests));
    for (const bool fullScan : {false, true}) {
        sim::MachineConfig cfg = smokeConfig(mode);
        (fullScan ? cfg.forceFullScan : cfg.indexCrossCheck) = true;
        const char* knob = fullScan ? "forceFullScan" : "indexCrossCheck";
        const KvServeResult r = runKvServe(cfg, smokeParams(requests));
        expectClean(r, what);
        EXPECT_TRUE(r.sys == plain.sys) << what << " with " << knob;
        EXPECT_TRUE(r.serve == plain.serve) << what << " with " << knob;
        EXPECT_EQ(r.makespan, plain.makespan) << what << " with " << knob;
    }
    return plain;
}

// Oracle + accounting across the commit-mode axis, including both
// bounded machines actually exercising their bounds on this workload:
// best-effort must capacity-abort into the fallback lock (scans
// overflow the hierarchy) and limited-set must route over-K scans
// onto the non-speculative path. Every mode is also replayed under
// the index cross-check and under forced full scans.
TEST(KvServe, OracleAndAccountingAcrossModes)
{
    const KvServeResult lazy =
        runCrossChecked(TxMode::LazyHmtx, 3000, "lazy");
    expectClean(lazy, "lazy");
    EXPECT_EQ(lazy.serve.requests, 3000u);
    EXPECT_EQ(lazy.serve.committed, 3000u);
    EXPECT_GT(lazy.sys.specSpills, 0u)
        << "unbounded HMTX should absorb scan overflow by spilling";

    const KvServeResult eager =
        runCrossChecked(TxMode::EagerHmtx, 3000, "eager");
    expectClean(eager, "eager");
    EXPECT_EQ(eager.serve.committed, 3000u);

    const KvServeResult btx =
        runCrossChecked(TxMode::BestEffort, 3000, "best-effort");
    expectClean(btx, "best-effort");
    EXPECT_EQ(btx.serve.committed, 3000u);
    EXPECT_GT(btx.sys.capacityAborts, 0u);
    EXPECT_GT(btx.tx.fallbackEntries, 0u);
    EXPECT_GT(btx.serve.lockRestarts, 0u)
        << "mid-body lock engagement must restart the body (a "
           "speculative prefix under the lock is flushable and its "
           "stores would be silently lost)";

    const KvServeResult ltd =
        runCrossChecked(TxMode::LimitedSet, 3000, "limited-set");
    expectClean(ltd, "limited-set");
    EXPECT_EQ(ltd.serve.committed, 3000u);
    EXPECT_GT(ltd.serve.nonSpecFallbacks, 0u)
        << "scans exceed K=4 and must take the non-speculative path";
}

// Identical (config, params) pairs must be bit-identical: the engine
// is deterministic, which is what makes the committed BENCH JSON and
// the CI gate reproducible. The shared Zipf table (kv_serve.hh) keeps
// the last (keys, theta) built, so the second run reuses the first
// run's table and the third, after a cell of another theta replaced
// it, builds it again.
TEST(KvServe, Deterministic)
{
    const sim::MachineConfig cfg = smokeConfig(TxMode::BestEffort);
    const KvServeResult a = runKvServe(cfg, smokeParams(2000));
    const KvServeResult hit = runKvServe(cfg, smokeParams(2000));
    KvServeParams other = smokeParams(2000);
    other.zipfTheta = 1.2;
    expectClean(runKvServe(cfg, other), "theta 1.2");
    const KvServeResult rebuilt = runKvServe(cfg, smokeParams(2000));
    for (const KvServeResult* b : {&hit, &rebuilt}) {
        EXPECT_EQ(a.makespan, b->makespan);
        EXPECT_EQ(a.serve.issued, b->serve.issued);
        EXPECT_EQ(a.serve.aborted, b->serve.aborted);
        EXPECT_EQ(a.serve.latency.percentile(0.999),
                  b->serve.latency.percentile(0.999));
    }
}

// Two threads run cells of different theta at the same time, each
// replacing the shared Zipf table the other may still be drawing
// from; both must match the same cells run one after another.
TEST(KvServe, ConcurrentCellsMatchSequential)
{
    constexpr double kThetas[2] = {0.0, 1.2};
    KvServeResult seq[2], par[2];
    auto params = [&](unsigned i) {
        KvServeParams p = smokeParams(2000);
        p.zipfTheta = kThetas[i];
        return p;
    };
    for (unsigned i = 0; i < 2; ++i)
        seq[i] = runKvServe(smokeConfig(TxMode::LazyHmtx), params(i));
    {
        std::thread t0([&] {
            par[0] = runKvServe(smokeConfig(TxMode::LazyHmtx), params(0));
        });
        std::thread t1([&] {
            par[1] = runKvServe(smokeConfig(TxMode::LazyHmtx), params(1));
        });
        t0.join();
        t1.join();
    }
    for (unsigned i = 0; i < 2; ++i) {
        expectClean(par[i], "concurrent");
        EXPECT_EQ(seq[i].makespan, par[i].makespan) << kThetas[i];
        EXPECT_EQ(seq[i].serve.issued, par[i].serve.issued) << kThetas[i];
        EXPECT_EQ(seq[i].serve.aborted, par[i].serve.aborted)
            << kThetas[i];
        EXPECT_EQ(seq[i].sys.loads, par[i].sys.loads) << kThetas[i];
        EXPECT_EQ(seq[i].serve.latency.percentile(0.999),
                  par[i].serve.latency.percentile(0.999))
            << kThetas[i];
    }
    EXPECT_NE(seq[0].makespan, seq[1].makespan)
        << "the two thetas should serve different key streams";
}

// Params the engine cannot honour abort the run instead of being
// truncated or reaching the Zipf table's assert, which Release
// builds compile out.
TEST(KvServeDeathTest, RejectsParamsBeyondTheLimits)
{
    const sim::MachineConfig cfg = smokeConfig(TxMode::LazyHmtx);
    KvServeParams p = smokeParams(100);
    p.scanBuckets = workloads::kMaxScanBuckets + 1;
    EXPECT_DEATH(runKvServe(cfg, p), "scanBuckets above kMaxScanBuckets");
    p = smokeParams(100);
    p.keys = workloads::kMaxKeys + 1;
    EXPECT_DEATH(runKvServe(cfg, p), "keys above kMaxKeys");
    p = smokeParams(100);
    p.zipfTheta = -0.5;
    EXPECT_DEATH(runKvServe(cfg, p), "zipfTheta negative or NaN");
    p.zipfTheta = std::numeric_limits<double>::quiet_NaN();
    EXPECT_DEATH(runKvServe(cfg, p), "zipfTheta negative or NaN");
}

// The streaming request path keeps no per-request state: the per-core
// scratch high-water mark must not move with the request count, and
// no latency samples may be retained unless explicitly recorded.
TEST(KvServe, StreamingMemoryIndependentOfRunLength)
{
    const KvServeResult small =
        runKvServe(smokeConfig(TxMode::LazyHmtx), smokeParams(2000));
    const KvServeResult large =
        runKvServe(smokeConfig(TxMode::LazyHmtx), smokeParams(6000));
    expectClean(small, "2k streaming");
    expectClean(large, "6k streaming");
    EXPECT_GT(small.scratchHighWater, 0u);
    EXPECT_EQ(small.scratchHighWater, large.scratchHighWater)
        << "request-path memory must be independent of run length";
    EXPECT_TRUE(small.recordedLatencies.empty());
    EXPECT_TRUE(large.recordedLatencies.empty());
}

} // namespace
