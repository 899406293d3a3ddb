/**
 * @file
 * Host-speed benchmark driver: runs one named workload in repeated
 * passes for a fixed host time and writes one JSON document with each
 * pass's host timings, its simulated statistics (which run.py digests)
 * and one span sample per call into a layer's public API.
 * perfbench/run.py reduces the document to metrics.
 *
 *   hmtx_perfbench --workload fig8|serve_uniform_read|
 *                  serve_skewed_write|mc_check
 *                  --seed N --seconds S --trace 0|1
 *
 * Everything runs on the calling thread: the sequential event engine,
 * one shard, no host worker threads. With --trace 1 traced and
 * untraced passes alternate, so one run yields both the per-layer
 * spans and the tracing overhead against the untraced passes.
 */

#include <malloc.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "bench/common.hh"
#include "check/differ.hh"
#include "check/explorer.hh"
#include "check/schedule.hh"
#include "workloads/kv_serve.hh"

extern char** environ;

using namespace hmtx;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Host-speed reference: inserts and then looks up 60k pseudo-random
 * keys in a std::unordered_map, a memory-bound mix like the
 * simulator's own. Timed around every pass, it tells run.py how fast
 * the host ran at the time, so slow periods of a shared host can be
 * scaled out.
 */
double
referenceSeconds()
{
    static volatile std::uint64_t sink = 0;
    const auto t0 = Clock::now();
    std::unordered_map<std::uint64_t, std::uint64_t> map;
    std::uint64_t x = 1, h = 0;
    for (unsigned k = 0; k < 60000; ++k) {
        x = x * 6364136223846793005ull + 1;
        map[x >> 40] += k;
    }
    for (unsigned k = 0; k < 60000; ++k) {
        x = x * 6364136223846793005ull + 1;
        const auto it = map.find(x >> 40);
        if (it != map.end())
            h += it->second;
    }
    sink = sink + h;
    return secondsSince(t0);
}

/** Append-only JSON object; fields keep their call order. */
class Json
{
  public:
    Json&
    u(const std::string& k, std::uint64_t v)
    {
        return raw(k, std::to_string(v));
    }

    Json&
    f(const std::string& k, double v)
    {
        char b[40];
        std::snprintf(b, sizeof b, "%.17g", v);
        return raw(k, b);
    }

    Json& s(const std::string& k, const std::string& v)
    {
        return raw(k, quote(v));
    }

    Json& o(const std::string& k, const Json& j) { return raw(k, j.str()); }

    Json&
    raw(const std::string& k, const std::string& json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += quote(k) + ':' + json;
        return *this;
    }

    std::string str() const { return '{' + body_ + '}'; }

    static std::string
    quote(const std::string& v)
    {
        std::string q = "\"";
        for (const char c : v) {
            if (c == '"' || c == '\\') {
                q += '\\';
                q += c;
            } else if (static_cast<unsigned char>(c) < 0x20) {
                char b[8];
                std::snprintf(b, sizeof b, "\\u%04x", c);
                q += b;
            } else {
                q += c;
            }
        }
        return q + '"';
    }

  private:
    std::string body_;
};

template <class T>
std::string
jsonList(const std::vector<T>& v)
{
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
        char b[40];
        if constexpr (std::is_floating_point_v<T>)
            std::snprintf(b, sizeof b, "%.17g", v[i]);
        else
            std::snprintf(b, sizeof b, "%llu",
                          static_cast<unsigned long long>(v[i]));
        if (i)
            out += ',';
        out += b;
    }
    return out + "]";
}

// ---------------------------------------------------------------------
// Simulated statistics, every field by name (run.py digests these).

Json
sysJson(const sim::SysStats& s)
{
    Json j;
    j.u("loads", s.loads).u("stores", s.stores)
        .u("specLoads", s.specLoads).u("specStores", s.specStores)
        .u("wrongPathLoads", s.wrongPathLoads).u("l1Hits", s.l1Hits)
        .u("l1Misses", s.l1Misses).u("snoopHits", s.snoopHits)
        .u("memFetches", s.memFetches).u("writebacks", s.writebacks)
        .u("busTxns", s.busTxns).u("dirLookups", s.dirLookups)
        .u("commits", s.commits)
        .u("commitProcessingCycles", s.commitProcessingCycles)
        .u("aborts", s.aborts)
        .u("falseAbortsWrongPath", s.falseAbortsWrongPath)
        .u("capacityAborts", s.capacityAborts)
        .u("newVersions", s.newVersions)
        .u("corDuplicates", s.corDuplicates).u("vidResets", s.vidResets)
        .u("slaNeeded", s.slaNeeded).u("slaConfirms", s.slaConfirms)
        .u("slaMismatchAborts", s.slaMismatchAborts)
        .u("avoidedAborts", s.avoidedAborts)
        .u("soOverflowWritebacks", s.soOverflowWritebacks)
        .u("soRefetches", s.soRefetches).u("specSpills", s.specSpills)
        .u("specRefills", s.specRefills).u("idleCores", s.idleCores)
        .u("committedTxs", s.committedTxs)
        .u("readSetLines", s.readSetLines)
        .u("writeSetLines", s.writeSetLines)
        .u("combinedSetLines", s.combinedSetLines)
        .u("maxCombinedSetLines", s.maxCombinedSetLines);
    return j;
}

Json
txJson(const TxModeStats& t)
{
    Json j;
    j.u("fallbackEntries", t.fallbackEntries)
        .u("fallbackAccesses", t.fallbackAccesses)
        .u("fallbackCommits", t.fallbackCommits)
        .u("fallbackWrapRemaps", t.fallbackWrapRemaps)
        .u("fallbackCycles", t.fallbackCycles)
        .u("limitedSetAborts", t.limitedSetAborts)
        .u("retryAborts", t.retryAborts)
        .u("earlyFallbacks", t.earlyFallbacks);
    return j;
}

/**
 * The histogram keeps its buckets private, so its shape is pinned by
 * the nearest-rank percentile at every 0.1% step (run-length encoded
 * as [value, steps] pairs) plus its exact count, sum and extremes.
 */
Json
latencyJson(const sim::LatencyHistogram& h)
{
    std::vector<std::uint64_t> ladder;
    for (unsigned k = 1; k <= 1000; ++k) {
        const std::uint64_t v = h.percentile(k / 1000.0);
        if (!ladder.empty() && ladder[ladder.size() - 2] == v) {
            ++ladder.back();
        } else {
            ladder.push_back(v);
            ladder.push_back(1);
        }
    }
    Json j;
    j.u("count", h.count()).u("sum", h.sum()).u("min", h.min())
        .u("max", h.max()).u("p50", h.percentile(0.50))
        .u("p99", h.percentile(0.99)).u("p999", h.percentile(0.999))
        .raw("ladder", jsonList(ladder));
    return j;
}

Json
serveJson(const sim::ServeStats& s)
{
    Json j;
    j.u("requests", s.requests).u("issued", s.issued)
        .u("committed", s.committed).u("aborted", s.aborted)
        .u("drains", s.drains).u("lockRestarts", s.lockRestarts)
        .u("nonSpecFallbacks", s.nonSpecFallbacks)
        .u("windowResets", s.windowResets).u("batches", s.batches)
        .u("idleCycles", s.idleCycles).o("latency", latencyJson(s.latency));
    return j;
}

Json
execJson(const runtime::ExecResult& r)
{
    Json j;
    j.u("cycles", r.cycles).u("checksum", r.checksum)
        .u("instructions", r.instructions)
        .u("transactions", r.transactions).u("vidResets", r.vidResets)
        .u("vidStallCycles", r.vidStallCycles).u("branches", r.branches)
        .u("mispredicts", r.mispredicts)
        .u("smtxMisspeculations", r.smtxMisspeculations)
        .o("sys", sysJson(r.stats)).o("tx", txJson(r.txStats));
    return j;
}

/** Simulator-side index counters (not architectural: not digested). */
Json
indexJson(const sim::IndexStats& s)
{
    Json j;
    j.u("snoopsVisited", s.snoopsVisited)
        .u("snoopsFiltered", s.snoopsFiltered)
        .u("registryWalks", s.registryWalks)
        .u("registryWalkLines", s.registryWalkLines)
        .u("fullScanWalks", s.fullScanWalks);
    return j;
}

// ---------------------------------------------------------------------
// One pass of a workload.

struct Pass
{
    bool traced = false;
    /** Host seconds before the first simulated access. */
    double setupS = 0;
    /** Host seconds of the measured phase. */
    double runS = 0;
    /** referenceSeconds(), mean of its runs before and after the pass. */
    double refS = 0;
    /** Simulated loads + stores retired (mc_check: replayed). */
    std::uint64_t accesses = 0;
    /** Committed requests (serve_*) or interleavings (mc_check). */
    std::uint64_t units = 0;
    std::uint64_t checks = 0;
    std::vector<std::string> failures;
    /** Architectural results; identical on every pass of a seed. */
    Json sim;
    /** Host- and simulator-side counters; not digested. */
    Json side;
    /** One host-seconds sample per call into a layer, by span. */
    std::map<std::string, std::vector<double>> spans;

    void
    check(bool ok, const std::string& what)
    {
        ++checks;
        if (!ok)
            failures.push_back(what);
    }

    /** Runs @p fn, keeps its host seconds as one sample of span
     *  @p name and returns them. */
    template <class F>
    double
    call(const char* name, F&& fn)
    {
        const auto t0 = Clock::now();
        fn();
        const double s = secondsSince(t0);
        spans[name].push_back(s);
        return s;
    }
};

/**
 * Pins every simulator-side knob the workloads depend on, so neither a
 * default nor an environment knob can leak in: one sequential engine,
 * one shard, no host worker threads, no debug cross-checks, no trace.
 * Each knob is set only where this tree still has it, so the benchmark
 * keeps building when a later change deletes one.
 */
template <class Cfg>
void
pinHostKnobs(Cfg& cfg, bool fastPath)
{
    if constexpr (requires { cfg.engine; })
        cfg.engine = decltype(cfg.engine)::Sequential;
    if constexpr (requires { cfg.engineThreads; })
        cfg.engineThreads = 1;
    if constexpr (requires { cfg.applyCommute; })
        cfg.applyCommute = false;
    if constexpr (requires { cfg.shards; })
        cfg.shards = 1;
    if constexpr (requires { cfg.shardThreads; })
        cfg.shardThreads = 1;
    if constexpr (requires { cfg.forceFullScan; })
        cfg.forceFullScan = false;
    if constexpr (requires { cfg.indexCrossCheck; })
        cfg.indexCrossCheck = false;
    if constexpr (requires { cfg.traceFlags; })
        cfg.traceFlags = 0;
    if constexpr (requires { cfg.fastPath; })
        cfg.fastPath = fastPath;
}

/** Table 2 machine exactly as fig8_speedup runs it: 4 cores, snoop
 *  bus, lazy HMTX, fast path off. */
sim::MachineConfig
fig8Config()
{
    sim::MachineConfig cfg;
    pinHostKnobs(cfg, false);
    cfg.validate();
    return cfg;
}

Pass
fig8Pass(bool traced, const std::vector<std::string>& names)
{
    Pass p;
    p.traced = traced;
    const sim::MachineConfig cfg = fig8Config();

    struct Proxy
    {
        std::string name;
        std::unique_ptr<runtime::LoopWorkload> seq, hmtx, smtx;
    };
    const auto t0 = Clock::now();
    std::vector<Proxy> proxies;
    for (const std::string& n : names)
        proxies.push_back({n, workloads::makeByName(n),
                           workloads::makeByName(n),
                           workloads::hasSmtxComparison(n)
                               ? workloads::makeByName(n)
                               : nullptr});
    p.setupS = secondsSince(t0);

    auto accesses = [](const runtime::ExecResult& r) {
        return r.stats.loads + r.stats.stores;
    };
    const auto t1 = Clock::now();
    for (Proxy& x : proxies) {
        runtime::ExecResult seq, hm, sm;
        p.call("runtime.seq", [&] {
            seq = runtime::Runner::runSequential(*x.seq, cfg);
        });
        p.call("runtime.hmtx", [&] {
            hm = runtime::Runner::runHmtx(*x.hmtx, cfg);
        });
        p.check(hm.checksum == seq.checksum,
                x.name + ": HMTX checksum differs from sequential");
        p.accesses += accesses(seq) + accesses(hm);
        Json one, idx;
        one.o("seq", execJson(seq)).o("hmtx", execJson(hm));
        idx.o("seq", indexJson(seq.indexStats))
            .o("hmtx", indexJson(hm.indexStats));
        if (x.smtx) {
            p.call("smtx.run", [&] {
                sm = smtx::SmtxRunner::run(*x.smtx, cfg,
                                           smtx::RwSetMode::Minimal);
            });
            p.check(sm.checksum == seq.checksum,
                    x.name + ": SMTX checksum differs from sequential");
            p.check(sm.smtxMisspeculations == 0,
                    x.name + ": SMTX misspeculated");
            p.accesses += accesses(sm);
            one.o("smtx", execJson(sm));
            idx.o("smtx", indexJson(sm.indexStats));
        }
        p.sim.o(x.name, one);
        p.side.o(x.name, idx);
    }
    p.runS = secondsSince(t1);
    return p;
}

constexpr TxMode kModes[] = {TxMode::LazyHmtx, TxMode::EagerHmtx,
                             TxMode::BestEffort, TxMode::LimitedSet};
constexpr sim::Fabric kFabrics[] = {sim::Fabric::SnoopBus,
                                    sim::Fabric::Directory};
constexpr std::uint64_t kServeRequests = 25000;

const char*
fabricName(sim::Fabric f)
{
    return f == sim::Fabric::Directory ? "directory" : "snoop-bus";
}

/** ext_kv_serving's serving machine: 4 cores, 1 KB/2-way L1, 8 KB/
 *  8-way L2, 8-bit VIDs, fast path on. */
sim::MachineConfig
servingConfig(TxMode mode, sim::Fabric fabric)
{
    sim::MachineConfig cfg;
    pinHostKnobs(cfg, true);
    cfg.numCores = 4;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.vidBits = 8;
    cfg.fabric = fabric;
    cfg.dirBanks = 8;
    cfg.txMode = mode;
    cfg.btxMaxRetries = 2;
    cfg.btxAbortThreshold = mode == TxMode::BestEffort ? 8 : 0;
    cfg.limitedSetK = 4;
    cfg.unboundedSpecSets =
        mode == TxMode::LazyHmtx || mode == TxMode::EagerHmtx;
    cfg.validate();
    return cfg;
}

/** ext_kv_serving's mix, every field set: 8192 keys over 2048
 *  buckets, 15% transfers, 5% strided scans, smooth arrivals at mean
 *  gap 1500 (~94% of capacity). */
workloads::KvServeParams
servingParams(double theta, double write, std::uint64_t seed)
{
    workloads::KvServeParams p;
    p.requests = kServeRequests;
    p.tableBuckets = 2048;
    p.keys = 8192;
    p.zipfTheta = theta;
    p.writeRatio = write;
    p.transferShare = 0.15;
    p.scanShare = 0.05;
    p.scanBuckets = 12;
    p.scanStride = 16;
    p.arrivalMeanGap = 1500;
    p.burstDuty = 1.0;
    p.burstAlpha = 1.5;
    p.seed = seed;
    p.ringCap = 64;
    p.maxAttempts = 64;
    p.drainAfter = 8;
    p.recordLatencies = false;
    p.oracleCheck = true;
    return p;
}

Pass
servePass(bool traced, double theta, double write, std::uint64_t seed)
{
    Pass p;
    p.traced = traced;
    Json cells;
    sim::LatencyHistogram all;
    std::map<std::string, sim::LatencyHistogram> byMode;
    unsigned cell = 0;
    for (const sim::Fabric fabric : kFabrics) {
        for (const TxMode mode : kModes) {
            const std::string name =
                std::string(txModeName(mode)) + "." + fabricName(fabric);
            workloads::KvServeResult r;
            const double span = p.call("serve.call", [&] {
                r = workloads::runKvServe(
                    servingConfig(mode, fabric),
                    servingParams(theta, write, seed * 16 + cell));
            });
            ++cell;
            p.spans["serve.loop"].push_back(r.hostSeconds);
            p.spans["serve.setup"].push_back(span - r.hostSeconds);
            p.setupS += span - r.hostSeconds;
            p.runS += r.hostSeconds;
            p.check(r.serve.consistent(),
                    name + ": inconsistent serve accounting");
            p.check(r.oracleOk,
                    name + ": final table diverged from the oracle");
            p.accesses += r.sys.loads + r.sys.stores;
            p.units += r.serve.committed;
            all.merge(r.serve.latency);
            byMode[txModeName(mode)].merge(r.serve.latency);

            Json c;
            c.u("makespan", r.makespan).o("sys", sysJson(r.sys))
                .o("tx", txJson(r.tx)).o("serve", serveJson(r.serve));
            cells.o(name, c);
            Json sd;
            sd.f("hostSeconds", r.hostSeconds)
                .u("scratchHighWater", r.scratchHighWater);
            p.side.o(name, sd);
        }
    }
    Json modes;
    for (const auto& [mode, h] : byMode)
        modes.o(mode, latencyJson(h));
    p.sim.o("cells", cells).o("latency", latencyJson(all))
        .o("latencyByMode", modes);
    return p;
}

constexpr unsigned kMcPrograms = 200;
constexpr unsigned kMcCores = 2;
constexpr unsigned kMcOps = 6;

bool
isAccess(check::OpKind k)
{
    using check::OpKind;
    return k == OpKind::Load || k == OpKind::Store ||
        k == OpKind::NonSpecLoad || k == OpKind::NonSpecStore ||
        k == OpKind::WrongPathLoad;
}

/** Cells one differential replay runs against (counted, not assumed). */
unsigned
matrixCells()
{
    unsigned n = 0;
    check::RunHooks hooks;
    hooks.onCell = [&n](const char*, sim::CacheSystem&) { ++n; };
    check::runSchedule(check::generateProgram(0, kMcCores, 1), nullptr,
                       check::kGroupAll, &hooks);
    return n;
}

Pass
mcPass(bool traced, std::uint64_t seed, unsigned cells)
{
    Pass p;
    p.traced = traced;
    std::vector<check::Schedule> progs(kMcPrograms);
    for (unsigned i = 0; i < kMcPrograms; ++i)
        p.setupS += p.call("check.generate", [&] {
            progs[i] = check::generateProgram(seed + i, kMcCores, kMcOps);
        });

    check::ExploreConfig ec;
    ec.groupMask = check::kGroupAll;
    ec.prune = true;
    ec.maxInterleavings = 1u << 16;
    ec.deliveryPoints = 0; // FIFO delivery
    std::vector<std::uint64_t> explored, pruned, envAborts, exhausted,
        diverged;
    const auto t0 = Clock::now();
    for (unsigned i = 0; i < kMcPrograms; ++i) {
        const std::string what = "program " + std::to_string(seed + i);
        check::ExploreResult r;
        p.call("check.explore", [&] { r = check::explore(progs[i], ec); });
        p.check(!r.div.found, what + ": divergence: " + r.div.what);
        p.check(r.stats.envAborts == 0,
                what + ": environmental capacity aborts");
        p.check(!r.stats.budgetExhausted,
                what + ": interleaving budget exhausted");
        std::uint64_t ops = 0;
        for (const check::Op& op : progs[i].ops)
            ops += isAccess(op.kind);
        p.accesses += r.stats.explored * ops * cells;
        p.units += r.stats.explored;
        explored.push_back(r.stats.explored);
        pruned.push_back(r.stats.pruned);
        envAborts.push_back(r.stats.envAborts);
        exhausted.push_back(r.stats.budgetExhausted);
        diverged.push_back(r.div.found);
        if (traced) {
            // One replay of the program in file order.
            check::Divergence d;
            p.call("check.replay",
                   [&] { d = check::runSchedule(progs[i]); });
            p.check(!d.found, what + ": file-order replay: " + d.what);
        }
    }
    p.runS = secondsSince(t0);
    p.sim.raw("explored", jsonList(explored))
        .raw("pruned", jsonList(pruned))
        .raw("envAborts", jsonList(envAborts))
        .raw("budgetExhausted", jsonList(exhausted))
        .raw("diverged", jsonList(diverged));
    p.side.u("cells", cells);
    return p;
}

Json
passJson(const Pass& p)
{
    Json j, spans;
    for (const auto& [name, v] : p.spans)
        spans.raw(name, jsonList(v));
    std::string fl = "[";
    for (std::size_t i = 0; i < p.failures.size(); ++i) {
        if (i)
            fl += ',';
        fl += Json::quote(p.failures[i]);
    }
    j.u("traced", p.traced).f("setup_s", p.setupS).f("run_s", p.runS)
        .f("ref_s", p.refS)
        .u("accesses", p.accesses).u("units", p.units)
        .u("checks", p.checks).raw("failures", fl + "]")
        .o("sim", p.sim).o("side", p.side).o("spans", spans);
    return j;
}

// ---------------------------------------------------------------------
// Hermetic environment and host fingerprint.

/** Refuses to run with any HMTX_* knob set (bench/common.hh reads them
 *  and they must not leak into a measurement). */
bool
environmentClean()
{
    bool clean = true;
    for (char** e = environ; *e; ++e) {
        if (std::strncmp(*e, "HMTX_", 5) == 0) {
            std::fprintf(stderr, "refusing to run with %s set\n", *e);
            clean = false;
        }
    }
    return clean;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

/** Peak resident memory of this process image. VmHWM, unlike
 *  getrusage's ru_maxrss, does not carry over the parent's footprint
 *  from before exec. */
double
peakRssMiB()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: hmtx_perfbench --workload W --seed N "
                 "--seconds S --trace 0|1\n"
                 "W: fig8, serve_uniform_read, serve_skewed_write, "
                 "mc_check\n");
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string a = argv[i];
        const char* v = argv[i + 1];
        if (a == "--workload")
            workload = v;
        else if (a == "--seed")
            seed = std::strtoull(v, nullptr, 0);
        else if (a == "--seconds")
            seconds = std::strtod(v, nullptr);
        else if (a == "--trace" && (!std::strcmp(v, "0") ||
                                    !std::strcmp(v, "1")))
            trace = v[0] == '1';
        else
            return usage();
    }
    if (argc % 2 == 0 || !(seconds > 0))
        return usage();
    if (!environmentClean())
        return 2;
    if (std::strcmp(HMTX_BUILD_TYPE, "Release") != 0) {
        std::fprintf(stderr,
                     "refusing to time a %s build; configure with "
                     "-DCMAKE_BUILD_TYPE=Release\n",
                     HMTX_BUILD_TYPE);
        return 2;
    }
    // Keep freed heap memory in the process: every pass rebuilds its
    // machines, and returning their memory to the kernel would make
    // each pass pay page faults, whose cost on a shared host is noise.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    std::function<Pass(bool)> pass;
    Json paper; // Figure 8 bars of the paper's gem5 results
    if (workload == "fig8") {
        std::vector<std::string> names;
        for (const auto& wl : workloads::makeSuite())
            names.push_back(wl->name());
        for (const std::string& n : names) {
            const bench::PaperRef& ref = bench::paperRefs().at(n);
            Json one;
            one.f("hmtx", ref.hmtxSpeedup).f("smtx", ref.smtxSpeedup);
            paper.o(n, one);
        }
        pass = [names](bool traced) { return fig8Pass(traced, names); };
    } else if (workload == "serve_uniform_read") {
        pass = [&](bool traced) {
            return servePass(traced, 0.0, 0.1, seed);
        };
    } else if (workload == "serve_skewed_write") {
        pass = [&](bool traced) {
            return servePass(traced, 1.2, 0.5, seed);
        };
    } else if (workload == "mc_check") {
        const unsigned cells = matrixCells();
        pass = [&, cells](bool traced) {
            return mcPass(traced, seed, cells);
        };
    } else {
        return usage();
    }

    Json fp;
    fp.s("cpu", cpuModel())
        .u("nproc", std::thread::hardware_concurrency())
        .s("compiler", HMTX_CXX_COMPILER)
        .s("build_type", HMTX_BUILD_TYPE);
    Json head;
    head.s("workload", workload).u("seed", seed).f("seconds", seconds)
        .u("trace", trace).o("fingerprint", fp).o("paper", paper);
    std::string doc = head.str();
    doc.back() = ',';
    std::printf("%s\"passes\":[", doc.c_str());

    // Untraced passes give the end-to-end metrics; with --trace 1 every
    // other pass is traced. Three of each at least, so every run can
    // compare the simulated results of repeated passes. Each pass is
    // written out as it ends, so the document never adds to the
    // resident memory being measured.
    unsigned plain = 0, traced = 0;
    const auto t0 = Clock::now();
    double refBefore = referenceSeconds();
    while (secondsSince(t0) < seconds || plain < 3 ||
           (trace && traced < 3)) {
        const bool tr = trace && (plain + traced) % 2 == 1;
        Pass p = pass(tr);
        const double refAfter = referenceSeconds();
        p.refS = (refBefore + refAfter) / 2;
        refBefore = refAfter;
        std::printf("%s%s", plain + traced ? "," : "",
                    passJson(p).str().c_str());
        ++(tr ? traced : plain);
    }
    std::printf("],\"rss_mb\":%.17g}\n", peakRssMiB());
    return 0;
}
