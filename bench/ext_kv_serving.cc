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
 * against the naive record-every-latency mode on the same cell and
 * embeds the registry-split before/after microbenchmark numbers
 * (bench/micro_hotpath.cc BM_VidResetDirtyBg) that make 1M+ requests
 * per run practical; ci/check.sh gates the streaming throughput
 * against the committed baseline via --gate.
 *
 * Usage: ext_kv_serving [out.json]      full sweep -> JSON report
 *        ext_kv_serving --gate          gate cell only, prints
 *                                       "gate_requests_per_sec <x>"
 *
 * Environment: HMTX_SERVE_THETA / HMTX_SERVE_WRITE_RATIO collapse the
 * corresponding axis, HMTX_SERVE_OPS overrides requests per cell,
 * HMTX_SERVE_BURST_DUTY the arrival burstiness (bench/common.hh).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "workloads/kv_serve.hh"

using namespace hmtx;

namespace
{

constexpr unsigned kCores = 4;

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
    // Host-perf only (bit-identical results); the serving engine runs
    // hit-dominated once the table is warm, so keep the fast path on.
    if (!std::getenv("HMTX_FASTPATH"))
        cfg.fastPath = true;
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
                     "(issued %llu, committed %llu, aborted %llu)\n",
                     what,
                     static_cast<unsigned long long>(r.serve.issued),
                     static_cast<unsigned long long>(
                         r.serve.committed),
                     static_cast<unsigned long long>(r.serve.aborted));
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
                "%zu skews x %zu write mixes, %llu requests/cell\n",
                std::size(modes), std::size(fabrics), thetas.size(),
                writes.size(),
                static_cast<unsigned long long>(
                    env.ops > 0 ? env.ops : kRequests));

    std::FILE* js = std::fopen(outPath, "w");
    if (!js) {
        std::fprintf(stderr, "FATAL: cannot open %s\n", outPath);
        return 1;
    }

    // Profile: streaming histogram vs naive record-every-latency on
    // the gate cell, plus the registry-split micro numbers
    // (micro_hotpath BM_VidResetDirtyBg, 64Ki dirty committed lines
    // in the background) that took vidReset from O(dirty working set)
    // to O(spec lines) — the overhaul that sustains 1M+ requests.
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
    std::printf("\nprofile (%llu requests, lazy/snoop-bus): "
                "streaming %.0f req/s host, naive-recorded %.0f "
                "req/s host\n",
                static_cast<unsigned long long>(profReq), streamRps,
                naiveRps);
    std::fprintf(
        js,
        "{\n \"config\": {\n"
        "  \"cores\": %u,\n  \"vidBits\": 8,\n"
        "  \"tableBuckets\": 2048,\n  \"keys\": 8192,\n"
        "  \"requests_per_cell\": %llu,\n"
        "  \"arrival_mean_gap\": 1500,\n"
        "  \"burst_duty\": %.2f,\n"
        "  \"transfer_share\": 0.15,\n  \"scan_share\": 0.05\n },\n"
        " \"profile\": {\n"
        "  \"gate_cell\": \"lazy-hmtx/snoop-bus theta=0.9 "
        "write=0.5\",\n"
        "  \"gate_requests\": %llu,\n"
        "  \"streaming_requests_per_sec\": %.0f,\n"
        "  \"naive_recorded_requests_per_sec\": %.0f,\n"
        "  \"registry_split_micro\": {\n"
        "   \"benchmark\": \"micro_hotpath BM_VidResetDirtyBg "
        "(64Ki dirty committed background lines)\",\n"
        "   \"vid_reset_us_before_split\": {\"clean\": 33.7, "
        "\"dirty_bg\": 1552.0},\n"
        "   \"vid_reset_us_after_split\": {\"clean\": 11.0, "
        "\"dirty_bg\": 11.6}\n  }\n },\n \"sweep\": [\n",
        kCores,
        static_cast<unsigned long long>(env.ops > 0 ? env.ops
                                                    : kRequests),
        env.burstDuty >= 0 ? env.burstDuty : 1.0,
        static_cast<unsigned long long>(profReq), streamRps,
        naiveRps);

    // p999 per (fabric, theta, write) for the btx-vs-lazy headline.
    std::map<std::string, std::uint64_t> p999;
    std::uint64_t total = 0;
    std::size_t cellIdx = 0;
    const std::size_t cellCount = std::size(modes) *
        std::size(fabrics) * thetas.size() * writes.size();

    for (const sim::Fabric fabric : fabrics) {
        for (const double theta : thetas) {
            for (const double write : writes) {
                std::printf("\n%s theta=%.2f write=%.2f\n",
                            bench::fabricName(fabric), theta, write);
                std::printf("%-13s | %10s %8s | %8s %8s %8s | %7s "
                            "%7s\n",
                            "mode", "cyc/req", "req/s", "p50", "p99",
                            "p999", "aborts", "fbEnt");
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
                    std::printf("%-13s | %10.1f %8.0f | %8llu %8llu "
                                "%8llu | %7llu %7llu\n",
                                txModeName(mode), cpr, rps,
                                static_cast<unsigned long long>(q50),
                                static_cast<unsigned long long>(q99),
                                static_cast<unsigned long long>(q999),
                                static_cast<unsigned long long>(
                                    r.sys.aborts),
                                static_cast<unsigned long long>(
                                    r.tx.fallbackEntries));

                    char key[96];
                    std::snprintf(key, sizeof key, "%s|%.2f|%.2f|%s",
                                  bench::fabricName(fabric), theta, write,
                                  txModeName(mode));
                    p999[key] = q999;

                    std::fprintf(
                        js,
                        "  {\"mode\": \"%s\", \"fabric\": \"%s\", "
                        "\"theta\": %.2f, \"write_ratio\": %.2f,\n"
                        "   \"requests\": %llu, \"makespan\": %llu, "
                        "\"cycles_per_req\": %.1f, "
                        "\"host_requests_per_sec\": %.0f,\n"
                        "   \"p50\": %llu, \"p99\": %llu, "
                        "\"p999\": %llu, \"max\": %llu, "
                        "\"mean\": %.1f,\n"
                        "   \"aborts\": %llu, \"drains\": %llu, "
                        "\"window_resets\": %llu, "
                        "\"fallback_entries\": %llu, "
                        "\"fallback_cycles\": %llu, "
                        "\"limited_set_aborts\": %llu, "
                        "\"non_spec_fallbacks\": %llu}%s\n",
                        txModeName(mode), bench::fabricName(fabric), theta,
                        write,
                        static_cast<unsigned long long>(
                            r.serve.committed),
                        static_cast<unsigned long long>(r.makespan),
                        cpr, rps,
                        static_cast<unsigned long long>(q50),
                        static_cast<unsigned long long>(q99),
                        static_cast<unsigned long long>(q999),
                        static_cast<unsigned long long>(
                            r.serve.latency.max()),
                        r.serve.latency.mean(),
                        static_cast<unsigned long long>(r.sys.aborts),
                        static_cast<unsigned long long>(
                            r.serve.drains),
                        static_cast<unsigned long long>(
                            r.serve.windowResets),
                        static_cast<unsigned long long>(
                            r.tx.fallbackEntries),
                        static_cast<unsigned long long>(
                            r.tx.fallbackCycles),
                        static_cast<unsigned long long>(
                            r.tx.limitedSetAborts),
                        static_cast<unsigned long long>(
                            r.serve.nonSpecFallbacks),
                        ++cellIdx < cellCount ? "," : "");
                }
            }
        }
    }

    // Headline: where does the bounded best-effort machine's tail
    // diverge from unbounded HMTX? Worst (and per-skew) btx/lazy
    // p999 ratios; the bench fails if no cell degrades by >= 1.2x.
    double worst = 0.0;
    std::string worstKey;
    std::fprintf(js, " ],\n \"p999_btx_over_lazy\": {\n");
    bool first = true;
    for (const sim::Fabric fabric : fabrics) {
        for (const double theta : thetas) {
            for (const double write : writes) {
                char base[96];
                std::snprintf(base, sizeof base, "%s|%.2f|%.2f",
                              bench::fabricName(fabric), theta, write);
                const std::uint64_t lazy =
                    p999[std::string(base) + "|" +
                         txModeName(TxMode::LazyHmtx)];
                const std::uint64_t btx =
                    p999[std::string(base) + "|" +
                         txModeName(TxMode::BestEffort)];
                const double ratio = lazy
                    ? static_cast<double>(btx) /
                        static_cast<double>(lazy)
                    : 0.0;
                if (ratio > worst) {
                    worst = ratio;
                    worstKey = base;
                }
                std::fprintf(js, "%s  \"%s\": %.3f",
                             first ? "" : ",\n", base, ratio);
                first = false;
            }
        }
    }
    const bool degraded = worst >= 1.2;
    std::fprintf(js,
                 "\n },\n \"headline\": {\"worst_btx_over_lazy_p999\":"
                 " %.3f, \"at\": \"%s\", \"degrades\": %s},\n"
                 " \"total_requests\": %llu\n}\n",
                 worst, worstKey.c_str(),
                 degraded ? "true" : "false",
                 static_cast<unsigned long long>(total + 2 * profReq));
    std::fclose(js);

    std::printf("\n%llu transactions served across the sweep "
                "(+%llu in the profile cells)\nwrote %s\n",
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(2 * profReq),
                outPath);
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
