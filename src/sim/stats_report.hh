/**
 * @file
 * Human-readable report formatting for run statistics.
 */

#ifndef HMTX_SIM_STATS_REPORT_HH
#define HMTX_SIM_STATS_REPORT_HH

#include <cstdio>
#include <string>

#include "sim/config.hh"
#include "sim/stats.hh"

namespace hmtx::sim
{

/**
 * Formats a SysStats snapshot as a gem5-style `name  value  # desc`
 * listing. Used by the benchmark driver example and handy when
 * debugging a run interactively.
 *
 * Each optional diagnostics block (sim.*, config.*) registers through
 * one shared helper — group() plus the RowSink formatter — so every
 * namespace renders identically and adding a block is one print
 * function plus one group() line, not a copy-pasted formatting block.
 */
class StatsReport
{
  public:
    /**
     * @param s     architectural run statistics
     * @param idx   optional simulator-side index diagnostics (snoop
     *              filter / registry effectiveness); printed when
     *              given
     * @param cfg   optional machine config; echoes the commit-mode
     *              axis (TxMode, retry budget, K) so reports are
     *              self-describing
     * @param tx    optional commit-mode policy counters (fallback
     *              serialization, limited-set aborts); printed when
     *              given
     * @param serve optional KV/OLTP serving-engine counters (request
     *              pipeline + latency percentiles); printed when
     *              given
     */
    explicit StatsReport(const SysStats& s,
                         const IndexStats* idx = nullptr,
                         const MachineConfig* cfg = nullptr,
                         const TxModeStats* tx = nullptr,
                         const ServeStats* serve = nullptr)
        : s_(s), idx_(idx), cfg_(cfg), tx_(tx), serve_(serve)
    {}

    /** Writes the report to @p out. */
    void
    print(std::FILE* out = stdout) const
    {
        RowSink sink{out};
        group(sink, cfg_, &printConfig);
        printSys(sink, s_);
        group(sink, idx_, &printIndex);
        group(sink, tx_, &printTxMode);
        group(sink, serve_, &printServe);
    }

  private:
    /** Shared row formatter every stats namespace renders through. */
    struct RowSink
    {
        std::FILE* out;

        /** Integer-valued counter row. */
        void
        row(const char* name, double v, const char* desc) const
        {
            std::fprintf(out, "%-28s %14.0f  # %s\n", name, v, desc);
        }

        /** Fractional row (rates, averages, kB). */
        void
        rate(const char* name, double v, const char* desc) const
        {
            std::fprintf(out, "%-28s %14.4f  # %s\n", name, v, desc);
        }

        /** String-valued row (config axes). */
        void
        str(const char* name, const char* v, const char* desc) const
        {
            std::fprintf(out, "%-28s %14s  # %s\n", name, v, desc);
        }
    };

    /**
     * The one registration point for optional stats namespaces:
     * renders @p t through @p fn when present, skips the block
     * entirely when absent.
     */
    template <typename T>
    static void
    group(RowSink& sink, const T* t, void (*fn)(RowSink&, const T&))
    {
        if (t)
            fn(sink, *t);
    }

    static void
    printConfig(RowSink& k, const MachineConfig& cfg)
    {
        k.str("config.txMode", txModeName(cfg.txMode),
              "commit-mode policy (TxPolicy axis)");
        k.row("config.btxMaxRetries", double(cfg.btxMaxRetries),
              "best-effort retries before the fallback lock");
        k.row("config.btxAbortThreshold",
              double(cfg.btxAbortThreshold),
              "total-abort threshold for early fallback (0 = off)");
        k.row("config.limitedSetK", double(cfg.limitedSetK),
              "speculative lines tracked per VID (limited-set)");
    }

    static void
    printSys(RowSink& k, const SysStats& s)
    {
        k.row("mem.loads", double(s.loads), "loads issued");
        k.row("mem.stores", double(s.stores), "stores issued");
        k.row("mem.specLoads", double(s.specLoads),
              "speculative loads (VID != 0)");
        k.row("mem.specStores", double(s.specStores),
              "speculative stores");
        k.row("mem.wrongPathLoads", double(s.wrongPathLoads),
              "squashed wrong-path loads (SS 5.1)");
        k.row("cache.l1Hits", double(s.l1Hits), "L1 hits");
        k.row("cache.l1Misses", double(s.l1Misses), "L1 misses");
        k.rate("cache.l1MissRate",
               s.l1Hits + s.l1Misses
                   ? double(s.l1Misses) / double(s.l1Hits +
                                                 s.l1Misses)
                   : 0.0,
               "L1 miss rate");
        k.row("cache.snoopHits", double(s.snoopHits),
              "hits served by a peer cache or the L2");
        k.row("cache.memFetches", double(s.memFetches),
              "lines fetched from memory");
        k.row("cache.writebacks", double(s.writebacks),
              "dirty lines written back");
        k.row("fabric.busTxns", double(s.busTxns),
              "coherence transactions");
        k.row("fabric.dirLookups", double(s.dirLookups),
              "directory bank lookups (SS 8 fabric)");
        k.row("hmtx.commits", double(s.commits),
              "group commits (SS 4.4)");
        k.row("hmtx.aborts", double(s.aborts),
              "transactional aborts");
        k.row("hmtx.newVersions", double(s.newVersions),
              "speculative line versions created");
        k.row("hmtx.commitCycles", double(s.commitProcessingCycles),
              "memory-system cycles processing commits (SS 5.3)");
        k.row("hmtx.vidResets", double(s.vidResets),
              "VID window resets (SS 4.6)");
        k.row("sla.needed", double(s.slaNeeded),
              "loads needing an acknowledgment (SS 5.1)");
        k.rate("sla.neededRate", s.slaNeededRate(),
               "fraction of speculative loads needing an SLA");
        k.row("sla.avoidedAborts", double(s.avoidedAborts),
              "false aborts avoided by SLAs");
        k.row("overflow.soWritebacks", double(s.soOverflowWritebacks),
              "pristine versions overflowed to memory (SS 5.4)");
        k.row("overflow.soRefetches", double(s.soRefetches),
              "pristine versions recovered from memory (SS 5.4)");
        k.row("overflow.specSpills", double(s.specSpills),
              "speculative lines spilled (unbounded sets, SS 8)");
        k.row("overflow.specRefills", double(s.specRefills),
              "speculative lines refilled (unbounded sets, SS 8)");
        k.row("tx.committed", double(s.committedTxs),
              "committed transactions");
        k.rate("tx.avgReadSetKB", s.avgReadSetKB(),
               "avg read set per transaction, kB (Fig. 9)");
        k.rate("tx.avgWriteSetKB", s.avgWriteSetKB(),
               "avg write set per transaction, kB (Fig. 9)");
        k.rate("tx.avgSpecAccesses", s.avgSpecAccessesPerTx(),
               "avg speculative accesses per transaction (Table 1)");
        k.row("sim.idleCores", double(s.idleCores),
              "cores the execution model left idle");
    }

    static void
    printIndex(RowSink& k, const IndexStats& idx)
    {
        k.row("sim.snoopsVisited", double(idx.snoopsVisited),
              "caches visited by filtered snoops");
        k.row("sim.snoopsFiltered", double(idx.snoopsFiltered),
              "cache snoops skipped by the set summaries");
        k.rate("sim.snoopFilterRate", idx.snoopFilterRate(),
               "fraction of snoop targets filtered out");
        k.row("sim.registryWalks", double(idx.registryWalks),
              "bulk walks served from spec-line registries");
        k.row("sim.registryWalkLines",
              double(idx.registryWalkLines),
              "lines visited by those registry walks");
        k.row("sim.fullScanWalks", double(idx.fullScanWalks),
              "bulk walks that scanned every cache slot");
        k.row("sim.indexCrossChecks", double(idx.crossChecks),
              "full-scan index verifications performed");
    }

    static void
    printTxMode(RowSink& k, const TxModeStats& tx)
    {
        k.row("sim.txmode.retryAborts", double(tx.retryAborts),
              "aborts charged against the retry budget");
        k.row("sim.txmode.fallbackEntries",
              double(tx.fallbackEntries),
              "times the serialized fallback lock engaged");
        k.row("sim.txmode.fallbackAccesses",
              double(tx.fallbackAccesses),
              "accesses executed under the fallback lock");
        k.row("sim.txmode.fallbackCommits",
              double(tx.fallbackCommits),
              "commits that released the fallback lock");
        k.row("sim.txmode.fallbackCycles",
              double(tx.fallbackCycles),
              "memory-system cycles of serialized execution");
        k.row("sim.txmode.fallbackWrapRemaps",
              double(tx.fallbackWrapRemaps),
              "VID-window resets absorbed while the lock was held");
        k.row("sim.txmode.earlyFallbacks",
              double(tx.earlyFallbacks),
              "fallbacks taken early via the abort threshold");
        k.row("sim.txmode.limitedSetAborts",
              double(tx.limitedSetAborts),
              "capacity aborts from the K-line set limit");
    }

    static void
    printServe(RowSink& k, const ServeStats& sv)
    {
        k.row("sim.serve.requests", double(sv.requests),
              "serving requests completed");
        k.row("sim.serve.issued", double(sv.issued),
              "transaction attempts started");
        k.row("sim.serve.committed", double(sv.committed),
              "attempts that committed");
        k.row("sim.serve.aborted", double(sv.aborted),
              "attempts ended by an abort (re-issued)");
        k.row("sim.serve.drains", double(sv.drains),
              "serialized oldest-alone drain passes after aborts");
        k.row("sim.serve.lockRestarts", double(sv.lockRestarts),
              "bodies restarted when the fallback lock engaged");
        k.row("sim.serve.nonSpecFallbacks",
              double(sv.nonSpecFallbacks),
              "over-K requests run non-speculatively (ltd)");
        k.row("sim.serve.windowResets", double(sv.windowResets),
              "VID-window resets between request batches");
        k.row("sim.serve.batches", double(sv.batches),
              "generator refill batches injected");
        k.row("sim.serve.idleCycles", double(sv.idleCycles),
              "core cycles idle awaiting open-loop arrivals");
        k.row("sim.serve.latencyP50",
              double(sv.latency.percentile(0.5)),
              "median request latency, cycles");
        k.row("sim.serve.latencyP99",
              double(sv.latency.percentile(0.99)),
              "p99 request latency, cycles");
        k.row("sim.serve.latencyP999",
              double(sv.latency.percentile(0.999)),
              "p999 request latency, cycles");
        k.row("sim.serve.latencyMax", double(sv.latency.max()),
              "max request latency, cycles");
        k.rate("sim.serve.latencyMean", sv.latency.mean(),
               "mean request latency, cycles");
    }

    const SysStats& s_;
    const IndexStats* idx_;
    const MachineConfig* cfg_;
    const TxModeStats* tx_;
    const ServeStats* serve_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_STATS_REPORT_HH
