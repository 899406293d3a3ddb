/**
 * @file
 * Sharded KV/OLTP serving engine: millions of mtx-scale request
 * transactions against a banked hash table, with streaming tail-latency
 * statistics.
 *
 * This is the serving-side counterpart of the loop workloads: instead
 * of a fixed iteration space executed by the runtime's PS-DSWP/worklist
 * executors, requests arrive on an *open loop* — per-core bursty
 * arrival processes draw keys from a Zipfian popularity law and issue
 * point-gets, read-modify-writes, two-key transfers, and small scans
 * as MTXs against a shared hash table in simulated memory. The engine
 * runs on runtime::LaneDriver, the crossover bench's drive loop (an
 * access charges its own lane; commits, aborts and serialized fallback
 * accesses synchronize every lane), so the four commit modes and both
 * fabrics are directly comparable under load.
 *
 * Throughput discipline (DESIGN.md §15): the request path performs no
 * host heap allocation and keeps no per-request state after commit.
 * Requests are staged in a fixed ring per core, allocated once with
 * the core's in-flight transaction, and refilled in batches;
 * latencies stream into the fixed-bucket log-scale histogram of
 * sim::ServeStats (exact nearest-rank p50/p99/p999, O(1) per retire),
 * so memory footprint is independent of the request count — the
 * smoke test pins scratchHighWater across run lengths to prove it, and
 * kv_serve_alloc_test counts operator new calls across run lengths.
 */

#ifndef HMTX_WORKLOADS_KV_SERVE_HH
#define HMTX_WORKLOADS_KV_SERVE_HH

#include <cstdint>
#include <vector>

#include "core/tx_policy.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace hmtx::workloads
{

/** Most keys a run may draw from: the Zipf table stores ranks as
 *  32-bit values. */
inline constexpr std::uint64_t kMaxKeys = UINT32_MAX;

/** Most buckets a scan may touch: a request body holds at most
 *  2 * kMaxScanBuckets + 4 ops. */
inline constexpr unsigned kMaxScanBuckets = 12;

/**
 * Knobs of one serving run (the bench sweeps a subset of these).
 * runKvServe() aborts on an empty table, key space or ring, on keys
 * above kMaxKeys, on a negative or NaN zipfTheta, and on scanBuckets
 * above kMaxScanBuckets.
 */
struct KvServeParams
{
    /** Total requests to serve across all cores. */
    std::uint64_t requests = 100000;
    /** Hash-table buckets; one cache line each (7 value slots). */
    std::uint64_t tableBuckets = 4096;
    /** Distinct keys, 1..kMaxKeys; popularity follows the Zipfian
     *  law below. */
    std::uint64_t keys = 16384;
    /** Zipfian skew theta >= 0 (0 = uniform; YCSB ~0.99; sweep to
     *  1.2). */
    double zipfTheta = 0.9;
    /** Fraction of point requests that read-modify-write their slot. */
    double writeRatio = 0.5;
    /** Fraction of requests that are two-key transfers. */
    double transferShare = 0.15;
    /** Fraction of requests that are strided range updates ("scans"):
     *  read + write one slot of scanBuckets buckets spaced scanStride
     *  apart. These are the capacity axis of the serving mix — the
     *  strided write set piles into few cache sets, so bounded
     *  machines overflow (best-effort capacity-aborts into the
     *  fallback lock, limited-set trips its K bound) while unbounded
     *  HMTX spills to the overflow table and keeps pipelining. */
    double scanShare = 0.05;
    /** Buckets touched by a scan, at most kMaxScanBuckets (>
     *  limitedSetK forces the bounded limited-set machine onto the
     *  non-speculative path; more than the smallest cache's
     *  associativity at a colliding stride makes a lone scan
     *  overflow the hierarchy). */
    unsigned scanBuckets = 12;
    /** Bucket stride of a scan; a multiple of every cache's set count
     *  focuses the whole range update onto one set per level. */
    unsigned scanStride = 16;
    /** Mean inter-arrival gap per core, cycles (open loop). */
    std::uint64_t arrivalMeanGap = 64;
    /** ON-fraction of the bursty arrival process in (0, 1]; 1 means a
     *  smooth open loop, smaller means the same offered load arrives
     *  compressed into heavy-tailed ON periods. */
    double burstDuty = 1.0;
    /** Pareto shape of the ON-period length (requests). */
    double burstAlpha = 1.5;
    std::uint64_t seed = 1;
    /** Per-core request ring capacity (requests staged per refill). */
    unsigned ringCap = 64;
    /** Global flushes tolerated per batch before the run FATALs. */
    unsigned maxAttempts = 64;
    /** Flushes per batch after which non-btx modes drain the oldest
     *  transaction alone (livelock-free forward progress). */
    unsigned drainAfter = 8;
    /** Also keep every latency sample (O(n) memory — tests and the
     *  naive-vs-streaming profile only; production runs stream). */
    bool recordLatencies = false;
    /** Replay committed writes through a host-side oracle and verify
     *  the final memory image against it. */
    bool oracleCheck = true;
};

/** Everything one serving run produced. */
struct KvServeResult
{
    sim::ServeStats serve;
    /** Max lane clock once every request committed (cycles). */
    std::uint64_t makespan = 0;
    sim::SysStats sys;
    TxModeStats tx;
    /** Final memory image matched the sequential oracle. */
    bool oracleOk = true;
    /** Host wall-clock of the serving loop (throughput profile). */
    double hostSeconds = 0.0;
    /** Bytes of every core's request ring and in-flight transaction
     *  — independent of KvServeParams::requests. */
    std::size_t scratchHighWater = 0;
    /** Only populated when recordLatencies is set. */
    std::vector<std::uint64_t> recordedLatencies;
};

/**
 * Runs one serving cell to completion. Deterministic for a given
 * (config, params) pair. Aborts the process if a batch exceeds
 * KvServeParams::maxAttempts global flushes (a livelock would
 * otherwise spin forever) or the params break a limit above.
 *
 * The Zipf key table is built once per (keys, zipfTheta) and shared
 * read-only between runs, so cells that run one after another with
 * the same pair, or at the same time on different threads, build it
 * once (DESIGN.md §15). Safe to call from several threads at once.
 */
KvServeResult runKvServe(const sim::MachineConfig& cfg,
                         const KvServeParams& p);

} // namespace hmtx::workloads

#endif // HMTX_WORKLOADS_KV_SERVE_HH
