/**
 * @file
 * Millions-of-MTX serving sweep: the KV/OLTP engine of
 * src/workloads/kv_serve.hh across the full commit-mode matrix
 * {lazy-hmtx, eager-hmtx, best-effort, limited-set} x {snoop-bus,
 * directory} x Zipf skew {0, 0.9, 1.2} x write ratio {0.1, 0.5} —
 * 48 cells x 25k requests = 1.2M transactions per run, each cell
 * reporting simulated throughput and exact streaming p50/p99/p999.
 *
 * The headline is the p999-vs-skew curve of best-effort against lazy
 * HMTX. The divergence is capacity-driven: every strided scan
 * overflows the small hierarchy, which unbounded HMTX absorbs by
 * spilling to the overflow table while best-effort capacity-aborts
 * its retry budget away and collapses onto the serialized fallback
 * lock — whole bodies re-execute under global lane syncs, and the
 * tail inflates at *every* skew. The gap is widest at low skew and
 * narrows as the Zipfian head heats up, because conflict aborts start
 * costing the unbounded machine replays too (its flush-and-replay is
 * global) while serialization already bounds best-effort's conflict
 * exposure. The limited-set machine instead pre-detects over-K scans
 * and runs them non-speculatively in commit order, trading throughput
 * for a flatter tail. The run exits 2 if no cell shows best-effort
 * degrading p999 by >= 1.2x against lazy HMTX at the same skew/mix.
 *
 * A profile section measures the streaming-histogram discipline
 * against the naive record-every-latency mode on the same cell;
 * ci/check.sh gates the streaming throughput against the committed
 * baseline via --gate. The registry split that keeps vidReset
 * O(spec lines) on dirty background state is measured separately:
 * micro_hotpath --benchmark_filter=BM_VidResetDirtyBg.
 *
 * Usage: ext_kv_serving [out.json]      full sweep -> JSON report
 *        ext_kv_serving --gate          gate cell only, prints
 *                                       "gate_requests_per_sec <x>"
 *
 * Environment: HMTX_SERVE_THETA / HMTX_SERVE_WRITE_RATIO collapse the
 * corresponding axis, HMTX_SERVE_OPS overrides requests per cell,
 * HMTX_SERVE_BURST_DUTY the arrival burstiness (bench/common.hh).
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"
#include "bench/json.hh"
#include "workloads/kv_serve.hh"

using namespace hmtx;

namespace
{

sim::MachineConfig
servingConfig(TxMode mode, sim::Fabric fabric)
{
    // The crossover bench's small machine: the serving footprints are
    // per-request tiny, but the hot Zipfian working set plus four
    // in-flight speculative sets is what pressures the bounded
    // machines — best-effort burns capacity aborts into its fallback
    // lock and limited-set trips its K bound, while full HMTX spills
    // to the overflow table and keeps pipelining.
    sim::MachineConfig cfg = bench::smallMachine(mode, fabric);
    // A wider VID window (256) amortizes window rollovers across more
    // requests; the registry split keeps each vidReset O(spec lines)
    // regardless of how much committed dirty state the table built up.
    cfg.vidBits = 8;
    cfg.validate();
    return cfg;
}

workloads::KvServeParams
servingParams(const bench::ServeEnv& env, double theta, double write,
              std::uint64_t requests, std::uint64_t seed)
{
    workloads::KvServeParams p;
    p.requests = env.ops > 0 ? env.ops : requests;
    p.tableBuckets = 2048;
    p.keys = 8192;
    p.zipfTheta = theta;
    p.writeRatio = write;
    p.transferShare = 0.15;
    p.scanShare = 0.05;
    // Offered load ~94% of the slowest cell's service capacity (the
    // saturated sweep measures ~250-370 cycles/request system-wide):
    // every mode still sustains the throughput, so the percentiles
    // compare queueing + serialization episodes rather than makespan
    // ramps of an overloaded queue. Smooth arrivals by default — the
    // tail then isolates the commit-mode differences; the burst knob
    // (HMTX_SERVE_BURST_DUTY) compresses the same load into
    // heavy-tailed ON periods, which dominates every mode's tail
    // equally.
    p.arrivalMeanGap = 1500;
    p.burstDuty = env.burstDuty >= 0 ? env.burstDuty : 1.0;
    p.seed = seed;
    return p;
}

void
requireClean(const workloads::KvServeResult& r, const char* what)
{
    if (!r.serve.consistent()) {
        std::fprintf(stderr,
                     "FATAL: %s: inconsistent serve accounting "
                     "(issued %" PRIu64 ", committed %" PRIu64
                     ", aborted %" PRIu64 ")\n",
                     what, r.serve.issued, r.serve.committed,
                     r.serve.aborted);
        std::exit(1);
    }
    if (!r.oracleOk) {
        std::fprintf(stderr, "FATAL: %s: final table diverged from "
                             "the sequential oracle\n",
                     what);
        std::exit(1);
    }
}

/** The fixed profile/gate cell: warm mid-skew lazy HMTX on the bus. */
workloads::KvServeResult
runGateCell(const bench::ServeEnv& env, std::uint64_t requests,
            bool recordLatencies)
{
    workloads::KvServeParams p =
        servingParams(env, 0.9, 0.5, requests, 42);
    p.recordLatencies = recordLatencies;
    const workloads::KvServeResult r =
        workloads::runKvServe(
            servingConfig(TxMode::LazyHmtx, sim::Fabric::SnoopBus), p);
    requireClean(r, "gate cell");
    return r;
}

} // namespace

int
main(int argc, char** argv)
{
    const bench::ServeEnv env = bench::serveEnv();

    if (argc > 1 && std::strcmp(argv[1], "--gate") == 0) {
        // CI throughput floor: one fixed streaming cell, host
        // requests/sec on stdout for ci/check.sh to compare against
        // the committed BENCH_serving.json baseline.
        const workloads::KvServeResult r = runGateCell(env, 60000,
                                                       false);
        std::printf("gate_requests_per_sec %.0f\n",
                    static_cast<double>(r.serve.committed) /
                        r.hostSeconds);
        return 0;
    }

    const char* outPath = argc > 1 ? argv[1] : "BENCH_serving.json";
    const TxMode modes[] = {TxMode::LazyHmtx, TxMode::EagerHmtx,
                            TxMode::BestEffort, TxMode::LimitedSet};
    const sim::Fabric fabrics[] = {sim::Fabric::SnoopBus,
                                   sim::Fabric::Directory};
    std::vector<double> thetas{0.0, 0.9, 1.2};
    std::vector<double> writes{0.1, 0.5};
    if (env.theta >= 0)
        thetas = {env.theta};
    if (env.writeRatio >= 0)
        writes = {env.writeRatio};
    const std::uint64_t kRequests = 25000;

    std::printf("KV/OLTP serving sweep: %zu modes x %zu fabrics x "
                "%zu skews x %zu write mixes, %" PRIu64
                " requests/cell\n",
                std::size(modes), std::size(fabrics), thetas.size(),
                writes.size(), env.ops > 0 ? env.ops : kRequests);

    // Profile: streaming histogram vs naive record-every-latency on
    // the gate cell. (vidReset's cost on dirty background lines is a
    // host microbenchmark: micro_hotpath
    // --benchmark_filter=BM_VidResetDirtyBg.)
    const std::uint64_t profReq = env.ops > 0 ? env.ops : 60000;
    runGateCell(env, profReq, false); // warm the allocator/page cache
    const workloads::KvServeResult stream =
        runGateCell(env, profReq, false);
    const workloads::KvServeResult naive =
        runGateCell(env, profReq, true);
    const double streamRps =
        static_cast<double>(stream.serve.committed) /
        stream.hostSeconds;
    const double naiveRps =
        static_cast<double>(naive.serve.committed) /
        naive.hostSeconds;
    std::printf("\nprofile (%" PRIu64 " requests, lazy/snoop-bus): "
                "streaming %.0f req/s host, naive-recorded %.0f "
                "req/s host\n",
                profReq, streamRps, naiveRps);

    // The config block echoes what every cell runs: the machine knobs
    // shared by all modes and the request mix (only theta, the write
    // ratio and the seed vary per cell).
    const sim::MachineConfig mc =
        servingConfig(TxMode::LazyHmtx, sim::Fabric::SnoopBus);
    const workloads::KvServeParams kp =
        servingParams(env, thetas[0], writes[0], kRequests, 42);
    bench::JsonWriter js;
    js.obj()
        .obj("config")
        .u("cores", mc.numCores)
        .u("vidBits", mc.vidBits)
        .u("tableBuckets", kp.tableBuckets)
        .u("keys", kp.keys)
        .u("requests_per_cell", kp.requests)
        .u("arrival_mean_gap", kp.arrivalMeanGap)
        .num("burst_duty", kp.burstDuty, 2)
        .num("transfer_share", kp.transferShare, 2)
        .num("scan_share", kp.scanShare, 2)
        .end()
        .obj("profile")
        .str("gate_cell", "lazy-hmtx/snoop-bus theta=0.9 write=0.5")
        .u("gate_requests", profReq)
        .num("streaming_requests_per_sec", streamRps, 0)
        .num("naive_recorded_requests_per_sec", naiveRps, 0)
        .end()
        .arr("sweep");

    // Headline: where does the bounded best-effort machine's tail
    // diverge from unbounded HMTX? The btx/lazy p999 ratio of every
    // (fabric, theta, write) cell group; the bench fails if no group
    // degrades by >= 1.2x.
    std::vector<std::pair<std::string, double>> ratios;
    double worst = 0.0;
    std::string worstKey;
    std::uint64_t total = 0;
    std::size_t cellIdx = 0;

    for (const sim::Fabric fabric : fabrics) {
        for (const double theta : thetas) {
            for (const double write : writes) {
                std::printf("\n%s theta=%.2f write=%.2f\n",
                            bench::fabricName(fabric), theta, write);
                std::printf("%-13s | %10s %8s | %8s %8s %8s | %7s "
                            "%7s\n",
                            "mode", "cyc/req", "req/s", "p50", "p99",
                            "p999", "aborts", "fbEnt");
                std::uint64_t lazyP999 = 0, btxP999 = 0;
                for (const TxMode mode : modes) {
                    const std::uint64_t seed = 42 + cellIdx;
                    const workloads::KvServeResult r =
                        workloads::runKvServe(
                            servingConfig(mode, fabric),
                            servingParams(env, theta, write,
                                          kRequests, seed));
                    requireClean(r, txModeName(mode));
                    total += r.serve.committed;

                    const double cpr =
                        static_cast<double>(r.makespan) /
                        static_cast<double>(r.serve.committed);
                    const double rps =
                        static_cast<double>(r.serve.committed) /
                        r.hostSeconds;
                    const std::uint64_t q50 =
                        r.serve.latency.percentile(0.50);
                    const std::uint64_t q99 =
                        r.serve.latency.percentile(0.99);
                    const std::uint64_t q999 =
                        r.serve.latency.percentile(0.999);
                    std::printf("%-13s | %10.1f %8.0f | %8" PRIu64
                                " %8" PRIu64 " %8" PRIu64 " | %7" PRIu64
                                " %7" PRIu64 "\n",
                                txModeName(mode), cpr, rps, q50, q99,
                                q999, r.sys.aborts,
                                r.tx.fallbackEntries);

                    if (mode == TxMode::LazyHmtx)
                        lazyP999 = q999;
                    else if (mode == TxMode::BestEffort)
                        btxP999 = q999;

                    js.obj()
                        .str("mode", txModeName(mode))
                        .str("fabric", bench::fabricName(fabric))
                        .num("theta", theta, 2)
                        .num("write_ratio", write, 2)
                        .u("requests", r.serve.committed)
                        .u("makespan", r.makespan)
                        .num("cycles_per_req", cpr, 1)
                        .num("host_requests_per_sec", rps, 0)
                        .u("p50", q50).u("p99", q99).u("p999", q999)
                        .u("max", r.serve.latency.max())
                        .num("mean", r.serve.latency.mean(), 1)
                        .u("aborts", r.sys.aborts)
                        .u("drains", r.serve.drains)
                        .u("window_resets", r.serve.windowResets)
                        .u("fallback_entries", r.tx.fallbackEntries)
                        .u("fallback_cycles", r.tx.fallbackCycles)
                        .u("limited_set_aborts", r.tx.limitedSetAborts)
                        .u("non_spec_fallbacks", r.serve.nonSpecFallbacks)
                        .end();
                    ++cellIdx;
                }
                char base[96];
                std::snprintf(base, sizeof base, "%s|%.2f|%.2f",
                              bench::fabricName(fabric), theta, write);
                const double ratio = lazyP999
                    ? static_cast<double>(btxP999) /
                        static_cast<double>(lazyP999)
                    : 0.0;
                if (ratio > worst) {
                    worst = ratio;
                    worstKey = base;
                }
                ratios.emplace_back(base, ratio);
            }
        }
    }
    js.end().obj("p999_btx_over_lazy");
    for (const auto& [base, ratio] : ratios)
        js.num(base.c_str(), ratio, 3);

    const bool degraded = worst >= 1.2;
    js.end()
        .obj("headline", true)
        .num("worst_btx_over_lazy_p999", worst, 3)
        .str("at", worstKey.c_str()).flag("degrades", degraded)
        .end()
        .u("total_requests", total + 2 * profReq)
        .end();
    if (!js.save(outPath)) {
        std::fprintf(stderr, "FATAL: cannot write %s\n", outPath);
        return 1;
    }

    std::printf("\n%" PRIu64 " transactions served across the sweep "
                "(+%" PRIu64 " in the profile cells)\nwrote %s\n",
                total, 2 * profReq, outPath);
    if (!degraded) {
        std::printf("NO p999 divergence: best-effort never degraded "
                    "lazy HMTX's tail by >= 1.2x\n");
        return 2;
    }
    std::printf("headline: best-effort degrades p999 by %.2fx at "
                "[%s] — fallback serialization is the tail\n",
                worst, worstKey.c_str());
    return 0;
}
