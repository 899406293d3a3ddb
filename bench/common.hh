/**
 * @file
 * Shared infrastructure for the benchmark harness: paper reference
 * values, speedup math, and table formatting.
 */

#ifndef HMTX_BENCH_COMMON_HH
#define HMTX_BENCH_COMMON_HH

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "runtime/executors.hh"
#include "smtx/smtx.hh"
#include "workloads/all.hh"

namespace hmtx::bench
{

/** Reference values transcribed from the paper for side-by-side
 *  comparison in the regenerated tables. */
struct PaperRef
{
    /** Table 1: average speculative accesses per TX. */
    double accPerTx;
    /** Table 1: aborts avoided via SLA per TX. */
    double slaAvoidedPerTx;
    /** Table 1: % of speculative loads needing an SLA. */
    double slaNeededPct;
    /** Table 1: % branch instructions inside the hot loop. */
    double branchPct;
    /** Table 1: branch misprediction rate inside the hot loop (%). */
    double mispredictPct;
    /** Figure 9: average combined R/W set (kB). */
    double combinedSetKB;
    /** Figure 8: hot-loop speedup, HMTX max R/W, 4 cores. */
    double hmtxSpeedup;
    /** Figure 8: hot-loop speedup, SMTX min R/W, 4 cores (0 = none). */
    double smtxSpeedup;
};

/** Per-benchmark reference data (Table 1, Figures 8 and 9). Figure
 *  bar heights are read off the plots to ~0.05 accuracy. */
inline const std::map<std::string, PaperRef>&
paperRefs()
{
    static const std::map<std::string, PaperRef> refs = {
        {"052.alvinn",
         {2290717, 0.158, 1.28, 11.5, 0.245, 350, 2.4, 1.9}},
        {"130.li",
         {181844120, 22.5, 4.21, 20.5, 3.65, 4000, 1.6, 1.2}},
        {"164.gzip",
         {6248356, 3.32, 7.08, 14.6, 2.68, 500, 1.9, 1.3}},
        {"186.crafty",
         {4498903, 1.50, 4.92, 13.1, 5.59, 600, 2.2, 0.0}},
        {"197.parser",
         {24733144, 24.6, 2.56, 19.2, 1.05, 1400, 1.8, 1.2}},
        {"256.bzip2",
         {131271380, 17.3, 6.04, 12.6, 1.33, 16222, 1.7, 1.1}},
        {"456.hmmer",
         {1709195, 0.187, 1.40, 4.83, 1.03, 300, 2.6, 2.1}},
        {"ispell",
         {43752, 0.0280, 13.0, 16.6, 2.82, 60, 1.9, 0.0}},
    };
    return refs;
}

/** Geometric mean of a non-empty vector. */
inline double
geomean(const std::vector<double>& v)
{
    double logSum = 0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

/** Hot-loop speedup of @p par relative to @p seq. */
inline double
speedup(const runtime::ExecResult& seq, const runtime::ExecResult& par)
{
    return static_cast<double>(seq.cycles) /
        static_cast<double>(par.cycles);
}

/**
 * Whole-program speedup via Amdahl's law given the hot loop's share
 * of native execution time (Table 1); used for Figure 2.
 */
inline double
wholeProgramSpeedup(double hotFraction, double hotSpeedup)
{
    return 1.0 / ((1.0 - hotFraction) + hotFraction / hotSpeedup);
}

/** Prints a horizontal rule sized for the standard table width. */
inline void
rule(unsigned width = 78)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/**
 * Applies the HMTX_FASTPATH environment knob ("on"/"off") to @p cfg:
 * it toggles the zero-event hit fast path (DESIGN.md §13). Results are
 * bit-identical either way — only host time and the sim.fastpath.*
 * counters change. Every bench applies this to each config it builds,
 * so one environment variable flips a whole run onto the fast path.
 */
inline void
applyFastPathEnv(sim::MachineConfig& cfg)
{
    const char* f = std::getenv("HMTX_FASTPATH");
    if (!f)
        return;
    if (std::strcmp(f, "on") == 0 || std::strcmp(f, "1") == 0) {
        cfg.fastPath = true;
    } else if (std::strcmp(f, "off") == 0 || std::strcmp(f, "0") == 0) {
        cfg.fastPath = false;
    } else {
        std::fprintf(stderr, "FATAL: HMTX_FASTPATH=%s (want on or off)\n",
                     f);
        std::abort();
    }
}

/**
 * The crossover and serving benches' machine: 4 cores, 1 KB/2-way L1,
 * 8 KB/8-way L2, 8 directory banks, btx retries 2 / threshold 8,
 * limited-set K = 4, unbounded sets for the HMTX modes.
 */
inline sim::MachineConfig
smallMachine(TxMode mode, sim::Fabric fabric)
{
    sim::MachineConfig cfg;
    applyFastPathEnv(cfg);
    cfg.numCores = 4;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.fabric = fabric;
    if (fabric == sim::Fabric::Directory)
        cfg.dirBanks = 8;
    cfg.txMode = mode;
    if (mode == TxMode::BestEffort) {
        cfg.btxMaxRetries = 2;
        cfg.btxAbortThreshold = 8;
        cfg.unboundedSpecSets = false;
    } else if (mode == TxMode::LimitedSet) {
        cfg.limitedSetK = 4;
        cfg.unboundedSpecSets = false;
    } else {
        cfg.unboundedSpecSets = true;
    }
    cfg.validate();
    return cfg;
}

/** Name of @p f as the bench reports print it. */
inline const char*
fabricName(sim::Fabric f)
{
    return f == sim::Fabric::Directory ? "directory" : "snoop-bus";
}

/**
 * Serving-bench knobs (HMTX_SERVE_*). Unset fields keep the bench
 * defaults: theta/writeRatio/burstDuty stay negative and ops stays 0,
 * so callers test `>= 0` / `> 0` before overriding. HMTX_SERVE_THETA
 * and HMTX_SERVE_WRITE_RATIO collapse the respective sweep axis to
 * the single given value; HMTX_SERVE_OPS overrides requests per cell
 * and HMTX_SERVE_BURST_DUTY the ON-fraction of the bursty arrival
 * process (1.0 = smooth open loop).
 */
struct ServeEnv
{
    double theta = -1.0;
    double writeRatio = -1.0;
    std::uint64_t ops = 0;
    double burstDuty = -1.0;
};

inline ServeEnv
serveEnv()
{
    auto fatal = [](const char* name, const char* v) {
        std::fprintf(stderr, "FATAL: %s=%s (want a number)\n", name,
                     v);
        std::abort();
    };
    auto num = [&](const char* name, double lo, double hi) {
        const char* v = std::getenv(name);
        if (!v)
            return -1.0;
        char* end = nullptr;
        const double d = std::strtod(v, &end);
        if (end == v || *end != '\0' || d < lo || d > hi)
            fatal(name, v);
        return d;
    };
    ServeEnv e;
    e.theta = num("HMTX_SERVE_THETA", 0.0, 4.0);
    e.writeRatio = num("HMTX_SERVE_WRITE_RATIO", 0.0, 1.0);
    const double ops = num("HMTX_SERVE_OPS", 1.0, 1e9);
    if (ops > 0)
        e.ops = static_cast<std::uint64_t>(ops);
    e.burstDuty = num("HMTX_SERVE_BURST_DUTY", 0.01, 1.0);
    return e;
}

/** Verifies checksum equality and aborts the bench loudly if the
 *  parallel run diverged from sequential semantics. */
inline void
requireChecksum(const std::string& bench,
                const runtime::ExecResult& seq,
                const runtime::ExecResult& par)
{
    if (seq.checksum != par.checksum) {
        std::fprintf(stderr,
                     "FATAL: %s: %s produced checksum %016llx, "
                     "sequential produced %016llx\n",
                     bench.c_str(), par.model.c_str(),
                     static_cast<unsigned long long>(par.checksum),
                     static_cast<unsigned long long>(seq.checksum));
        std::abort();
    }
}

} // namespace hmtx::bench

#endif // HMTX_BENCH_COMMON_HH
