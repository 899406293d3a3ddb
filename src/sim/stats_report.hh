/**
 * @file
 * Human-readable report formatting for run statistics.
 */

#ifndef HMTX_SIM_STATS_REPORT_HH
#define HMTX_SIM_STATS_REPORT_HH

#include <cinttypes>
#include <cstdio>
#include <tuple>

#include "sim/config.hh"
#include "sim/stats.hh"

namespace hmtx::sim
{

/**
 * Formats stats groups as a gem5-style `name  value  # desc` listing.
 * Used by the benchmark_driver example, hmtx_fuzz's summaries
 * and handy when debugging a run interactively.
 *
 * A report prints exactly the groups it is handed, in the order given:
 * any of MachineConfig (the commit-mode axis, config.*), SysStats,
 * IndexStats (sim.*), TxModeStats (sim.txmode.*) and ServeStats
 * (sim.serve.*). Counter rows come from each struct's field table
 * (core/stat_table.hh); only derived rows — rates, set sizes in kB,
 * latency percentiles — are written out here.
 *
 *     StatsReport(cfg, r.stats, r.indexStats, r.txStats).print();
 *
 * The report holds references to its groups: print it while they
 * live, as the one-expression idiom above does.
 */
template <typename... Groups>
class StatsReport
{
  public:
    explicit StatsReport(const Groups&... groups) : groups_(groups...) {}

    /** Writes the report to @p out. */
    void
    print(std::FILE* out = stdout) const
    {
        std::apply([out](const Groups&... g) { (group(out, g), ...); },
                   groups_);
    }

  private:
    /** Integer-valued row. */
    static void
    row(std::FILE* out, const char* name, std::uint64_t v,
        const char* desc)
    {
        std::fprintf(out, "%-28s %14" PRIu64 "  # %s\n", name, v, desc);
    }

    /** Fractional row (rates, averages, kB). */
    static void
    rate(std::FILE* out, const char* name, double v, const char* desc)
    {
        std::fprintf(out, "%-28s %14.4f  # %s\n", name, v, desc);
    }

    /** Every counter of @p s's field table: the whole TxModeStats
     *  group, the first rows of the others. */
    template <typename S>
    static void
    group(std::FILE* out, const S& s)
    {
        for (const auto& f : S::kFields)
            row(out, f.name, s.*f.member, f.desc);
    }

    static void
    group(std::FILE* out, const MachineConfig& cfg)
    {
        std::fprintf(out, "%-28s %14s  # %s\n", "config.txMode",
                     txModeName(cfg.txMode),
                     "commit-mode policy (TxPolicy axis)");
        row(out, "config.btxMaxRetries", cfg.btxMaxRetries,
            "best-effort retries before the fallback lock");
        row(out, "config.btxAbortThreshold", cfg.btxAbortThreshold,
            "total-abort threshold for early fallback (0 = off)");
        row(out, "config.limitedSetK", cfg.limitedSetK,
            "speculative lines tracked per VID (limited-set)");
    }

    static void
    group(std::FILE* out, const SysStats& s)
    {
        group<SysStats>(out, s);
        const std::uint64_t l1 = s.l1Hits + s.l1Misses;
        rate(out, "cache.l1MissRate",
             l1 ? double(s.l1Misses) / double(l1) : 0.0,
             "L1 miss rate");
        rate(out, "sla.neededRate", s.slaNeededRate(),
             "fraction of speculative loads needing an SLA");
        rate(out, "tx.avgReadSetKB", s.avgReadSetKB(),
             "avg read set per transaction, kB (Fig. 9)");
        rate(out, "tx.avgWriteSetKB", s.avgWriteSetKB(),
             "avg write set per transaction, kB (Fig. 9)");
        rate(out, "tx.avgSpecAccesses", s.avgSpecAccessesPerTx(),
             "avg speculative accesses per transaction (Table 1)");
    }

    static void
    group(std::FILE* out, const IndexStats& idx)
    {
        group<IndexStats>(out, idx);
        rate(out, "sim.snoopFilterRate", idx.snoopFilterRate(),
             "fraction of snoop targets filtered out");
    }

    static void
    group(std::FILE* out, const ServeStats& sv)
    {
        group<ServeStats>(out, sv);
        row(out, "sim.serve.latencyP50", sv.latency.percentile(0.5),
            "median request latency, cycles");
        row(out, "sim.serve.latencyP99", sv.latency.percentile(0.99),
            "p99 request latency, cycles");
        row(out, "sim.serve.latencyP999", sv.latency.percentile(0.999),
            "p999 request latency, cycles");
        row(out, "sim.serve.latencyMax", sv.latency.max(),
            "max request latency, cycles");
        rate(out, "sim.serve.latencyMean", sv.latency.mean(),
             "mean request latency, cycles");
    }

    std::tuple<const Groups&...> groups_;
};

template <typename... Groups>
StatsReport(const Groups&...) -> StatsReport<Groups...>;

} // namespace hmtx::sim

#endif // HMTX_SIM_STATS_REPORT_HH
