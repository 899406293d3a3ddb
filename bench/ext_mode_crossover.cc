/**
 * @file
 * Commit-mode crossover bench: full HMTX (unbounded speculative sets
 * backed by the §5.4 overflow table) versus best-effort HTM with a
 * serialized global-lock fallback, under a rising per-transaction
 * write-set sweep on both interconnect fabrics.
 *
 * The experiment drives CacheSystem directly (no runtime executors)
 * with a pipeline of transactions striped across 4 cores: every
 * transaction stores W distinct lines of a private region, reads a
 * couple of them back, and occasionally collides on a shared line so
 * the retry budget is exercised too. Cost is tracked with per-core
 * lane clocks: an access charges its own lane, while commits, aborts,
 * and serialized fallback accesses synchronize every lane (they hold
 * the global bus/lock). The makespan of a cell is the maximum lane
 * clock once every transaction has committed.
 *
 * Small caches make the capacity axis bite: while W fits, best-effort
 * tracks sets for free and matches (or beats) the overflow-table
 * machinery; once write sets outgrow the hierarchy, best-effort burns
 * retries and collapses onto the serialized fallback while full HMTX
 * keeps pipelining through spills. The crossover point — the smallest
 * W where full HMTX is strictly faster — is printed per fabric and
 * recorded, with the `sim.txmode.*` fallback-serialization counters,
 * in BENCH_modes.json (path overridable as argv[1]).
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench/common.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "sim/stats_report.hh"

using namespace hmtx;

namespace
{

constexpr unsigned kCores = 4;
constexpr unsigned kBatches = 12; // 48 transactions, inside one window
constexpr unsigned kMaxAttempts = 64;

sim::MachineConfig
cellConfig(TxMode mode, sim::Fabric fabric)
{
    sim::MachineConfig cfg;
    bench::applyFastPathEnv(cfg);
    cfg.numCores = kCores;
    // Tiny hierarchy so the write-set sweep crosses the capacity
    // boundary mid-sweep instead of at absurd W.
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
        cfg.btxAbortThreshold = 8; // early fallback once aborts pile up
        cfg.unboundedSpecSets = false;
    } else {
        cfg.unboundedSpecSets = true; // full HMTX: overflow table
    }
    cfg.validate();
    return cfg;
}

/** Result of one (mode, fabric, W) cell. */
struct CellResult
{
    std::uint64_t makespan = 0;
    std::uint64_t flushes = 0; ///< global aborts the pipeline absorbed
    sim::SysStats stats;
    TxModeStats tx;
};

/** One straight-line transaction body. */
struct TxInstr
{
    bool isStore;
    Addr addr;
    std::uint64_t value;
};

/** Per-core lane clocks with global synchronization points. */
struct LaneClock
{
    std::uint64_t t[kCores] = {};

    std::uint64_t
    maxT() const
    {
        std::uint64_t m = 0;
        for (std::uint64_t v : t)
            m = std::max(m, v);
        return m;
    }

    void
    local(unsigned core, std::uint64_t cycles)
    {
        t[core] += cycles;
    }

    /** Global event (commit, abort, serialized access): every lane
     *  waits for the slowest, then all advance together. */
    void
    global(std::uint64_t cycles)
    {
        const std::uint64_t m = maxT() + cycles;
        for (std::uint64_t& v : t)
            v = m;
    }
};

/**
 * Runs the whole transaction pipeline for one cell. Each batch puts
 * one transaction per core in flight (VIDs LC+1..LC+4), interleaves
 * their bodies round-robin, and commits a transaction the moment it
 * finishes at the head of the VID order. A global flush rewinds every
 * speculative transaction to its first instruction — but not the
 * fallback-lock holder, whose serialized progress is committed state
 * and survives the flush exactly as it does architecturally. That is
 * what makes the loop converge in best-effort mode: once the budget
 * arms, the oldest transaction serializes through any number of
 * younger capacity aborts, commits, and shrinks the batch.
 */
CellResult
runCell(const sim::MachineConfig& cfg, unsigned W)
{
    sim::EventQueue eq;
    sim::CacheSystem sys(eq, cfg);
    CellResult res;
    LaneClock lanes;

    const Addr sharedLine = 0x80000;
    Vid nextVid = 1;

    for (unsigned batch = 0; batch < kBatches; ++batch) {
        const Vid baseVid = nextVid;
        nextVid += kCores;
        // A sparse deterministic conflict: on its first run, every
        // fourth batch reads a shared line everywhere and then has
        // its oldest transaction store it, which must abort (§4.3).
        // Re-executions run with the dependence resolved.
        bool conflict = batch % 4 == 0;

        auto bodyOf = [&](unsigned c) {
            const Vid vid = baseVid + c;
            const Addr region =
                0x100000 + (static_cast<Addr>(vid) << 16);
            std::vector<TxInstr> body;
            if (conflict)
                body.push_back({false, sharedLine, 0});
            body.push_back({false, region, 0});
            body.push_back({false, region + 64, 0});
            for (unsigned w = 0; w < W; ++w)
                body.push_back({true,
                                region + static_cast<Addr>(w) * 64,
                                vid * 1000 + w});
            if (conflict && c == 0)
                body.push_back({true, sharedLine, vid});
            return body;
        };

        std::vector<std::vector<TxInstr>> body(kCores);
        for (unsigned c = 0; c < kCores; ++c)
            body[c] = bodyOf(c);
        unsigned progress[kCores] = {};
        bool committed[kCores] = {};
        const std::uint64_t flushCap = res.flushes + kMaxAttempts;

        for (;;) {
            bool all = true;
            for (bool b : committed)
                all = all && b;
            if (all)
                break;
            if (res.flushes >= flushCap) {
                std::fprintf(stderr,
                             "FATAL: batch %u stuck after %u flushes "
                             "(W=%u, mode=%s)\n",
                             batch, kMaxAttempts, W,
                             txModeName(cfg.txMode));
                std::exit(1);
            }
            for (unsigned c = 0; c < kCores; ++c) {
                if (committed[c] || progress[c] >= body[c].size())
                    continue;
                const Vid vid = baseVid + c;
                const TxInstr& in = body[c][progress[c]];
                const std::uint64_t fbBefore =
                    sys.txPolicy().stats().fallbackAccesses;
                const std::uint64_t abortsBefore = sys.stats().aborts;
                sim::AccessResult r = in.isStore
                    ? sys.store(c, in.addr, in.value, 8, vid)
                    : sys.load(c, in.addr, 8, vid);
                const bool serialized =
                    sys.txPolicy().stats().fallbackAccesses > fbBefore;
                if (serialized)
                    lanes.global(r.latency);
                else
                    lanes.local(c, r.latency);
                if (sys.stats().aborts > abortsBefore) {
                    // Global flush: every speculative transaction of
                    // the batch rewinds; the serialized lock holder
                    // (if any) keeps its committed progress, and its
                    // own collisions flush+retry internally without
                    // surfacing as an aborted access. The conflict
                    // dependence is consumed by whichever abort it
                    // raised.
                    ++res.flushes;
                    lanes.global(0);
                    const bool held = sys.txPolicy().fallbackHeld();
                    const Vid holder = sys.txPolicy().fallbackVid();
                    if (conflict) {
                        conflict = false;
                        for (unsigned k = 0; k < kCores; ++k)
                            if (!(held && baseVid + k == holder))
                                body[k] = bodyOf(k);
                    }
                    for (unsigned k = 0; k < kCores; ++k)
                        if (!committed[k] &&
                            !(held && baseVid + k == holder))
                            progress[k] = 0;
                    if (!r.aborted)
                        ++progress[c]; // serialized access completed
                    break;
                }
                ++progress[c];
            }
            // Commit every head-of-order transaction that finished;
            // commits broadcast, so they synchronize the lanes.
            for (unsigned c = 0; c < kCores; ++c) {
                if (committed[c] || progress[c] < body[c].size() ||
                    baseVid + c != sys.lcVid() + 1)
                    continue;
                lanes.global(sys.commit(baseVid + c));
                committed[c] = true;
            }
        }
    }

    res.makespan = lanes.maxT();
    res.stats = sys.stats();
    res.tx = sys.txPolicy().stats();
    sys.checkInvariants();
    return res;
}

const char*
fabricName(sim::Fabric f)
{
    return f == sim::Fabric::Directory ? "directory" : "snoop-bus";
}

void
emitTxRows(std::FILE* js, const TxModeStats& tx)
{
    std::fprintf(
        js,
        "     \"sim.txmode.retryAborts\": %llu,\n"
        "     \"sim.txmode.fallbackEntries\": %llu,\n"
        "     \"sim.txmode.fallbackAccesses\": %llu,\n"
        "     \"sim.txmode.fallbackCommits\": %llu,\n"
        "     \"sim.txmode.fallbackCycles\": %llu,\n"
        "     \"sim.txmode.fallbackWrapRemaps\": %llu,\n"
        "     \"sim.txmode.earlyFallbacks\": %llu,\n"
        "     \"sim.txmode.limitedSetAborts\": %llu",
        static_cast<unsigned long long>(tx.retryAborts),
        static_cast<unsigned long long>(tx.fallbackEntries),
        static_cast<unsigned long long>(tx.fallbackAccesses),
        static_cast<unsigned long long>(tx.fallbackCommits),
        static_cast<unsigned long long>(tx.fallbackCycles),
        static_cast<unsigned long long>(tx.fallbackWrapRemaps),
        static_cast<unsigned long long>(tx.earlyFallbacks),
        static_cast<unsigned long long>(tx.limitedSetAborts));
}

} // namespace

int
main(int argc, char** argv)
{
    const char* outPath = argc > 1 ? argv[1] : "BENCH_modes.json";
    const std::vector<unsigned> sweep{4, 8, 16, 32, 64};
    const sim::Fabric fabrics[] = {sim::Fabric::SnoopBus,
                                   sim::Fabric::Directory};

    std::printf("Commit-mode crossover: full HMTX (unbounded sets) vs "
                "best-effort + fallback\n%u cores, %u transactions, "
                "rising stores per transaction\n",
                kCores, kCores * kBatches);

    std::FILE* js = std::fopen(outPath, "w");
    if (!js) {
        std::fprintf(stderr, "FATAL: cannot open %s\n", outPath);
        return 1;
    }
    // Echo the commit-mode axis of the best-effort cell so the report
    // is self-describing (the full-HMTX cell is the lazy default).
    const sim::MachineConfig echo =
        cellConfig(TxMode::BestEffort, sim::Fabric::SnoopBus);
    std::fprintf(
        js,
        "{\n \"config\": {\n"
        "  \"cores\": %u,\n  \"transactions\": %u,\n"
        "  \"hmtx.txMode\": \"%s\",\n"
        "  \"hmtx.unboundedSpecSets\": true,\n"
        "  \"btx.txMode\": \"%s\",\n"
        "  \"btx.btxMaxRetries\": %u,\n"
        "  \"btx.btxAbortThreshold\": %u,\n"
        "  \"btx.limitedSetK\": %u\n },\n \"sweep\": [\n",
        kCores, kCores * kBatches, txModeName(TxMode::LazyHmtx),
        txModeName(echo.txMode), echo.btxMaxRetries,
        echo.btxAbortThreshold, echo.limitedSetK);

    bool crossoverEverywhere = true;
    unsigned crossover[2] = {0, 0};
    std::size_t cellIdx = 0;
    const std::size_t cellCount = 2 * sweep.size();

    for (unsigned fi = 0; fi < 2; ++fi) {
        const sim::Fabric fabric = fabrics[fi];
        std::printf("\n%s fabric\n", fabricName(fabric));
        std::printf("%-6s | %-12s | %-12s %-7s | %-8s %-9s %-9s %-8s\n",
                    "W", "hmtx cyc", "btx cyc", "ratio", "aborts",
                    "fbEntry", "fbCycles", "spills");
        for (unsigned i = 0; i < 70; ++i)
            std::putchar('-');
        std::putchar('\n');

        for (unsigned W : sweep) {
            CellResult hm =
                runCell(cellConfig(TxMode::LazyHmtx, fabric), W);
            CellResult be =
                runCell(cellConfig(TxMode::BestEffort, fabric), W);
            const double ratio = static_cast<double>(be.makespan) /
                static_cast<double>(hm.makespan);
            std::printf("%-6u | %12llu | %12llu %6.2fx | %8llu "
                        "%9llu %9llu %8llu\n",
                        W,
                        static_cast<unsigned long long>(hm.makespan),
                        static_cast<unsigned long long>(be.makespan),
                        ratio,
                        static_cast<unsigned long long>(
                            be.stats.aborts),
                        static_cast<unsigned long long>(
                            be.tx.fallbackEntries),
                        static_cast<unsigned long long>(
                            be.tx.fallbackCycles),
                        static_cast<unsigned long long>(
                            hm.stats.specSpills));
            if (crossover[fi] == 0 && hm.makespan < be.makespan)
                crossover[fi] = W;

            const double fbShare = be.makespan
                ? static_cast<double>(be.tx.fallbackCycles) /
                    static_cast<double>(be.makespan)
                : 0.0;
            std::fprintf(
                js,
                "  {\"fabric\": \"%s\", \"stores_per_tx\": %u,\n"
                "   \"hmtx\": {\"cycles\": %llu, \"flushes\": %llu, "
                "\"aborts\": %llu, \"specSpills\": %llu, "
                "\"specRefills\": %llu},\n"
                "   \"btx\": {\"cycles\": %llu, \"flushes\": %llu, "
                "\"aborts\": %llu, \"capacityAborts\": %llu, "
                "\"fallback_cycle_share\": %.4f,\n",
                fabricName(fabric), W,
                static_cast<unsigned long long>(hm.makespan),
                static_cast<unsigned long long>(hm.flushes),
                static_cast<unsigned long long>(hm.stats.aborts),
                static_cast<unsigned long long>(hm.stats.specSpills),
                static_cast<unsigned long long>(hm.stats.specRefills),
                static_cast<unsigned long long>(be.makespan),
                static_cast<unsigned long long>(be.flushes),
                static_cast<unsigned long long>(be.stats.aborts),
                static_cast<unsigned long long>(
                    be.stats.capacityAborts),
                fbShare);
            emitTxRows(js, be.tx);
            std::fprintf(js, "}}%s\n",
                         ++cellIdx < cellCount ? "," : "");
        }
    }

    for (unsigned fi = 0; fi < 2; ++fi) {
        if (crossover[fi] == 0) {
            crossoverEverywhere = false;
            std::printf("\n%s: NO crossover — best-effort never lost "
                        "within the sweep\n",
                        fabricName(fabrics[fi]));
        } else {
            std::printf("\n%s: full HMTX overtakes best-effort at "
                        "W=%u stores/tx\n",
                        fabricName(fabrics[fi]), crossover[fi]);
        }
    }

    std::fprintf(js,
                 " ],\n \"crossover_stores_per_tx\": "
                 "{\"snoop-bus\": %u, \"directory\": %u}\n}\n",
                 crossover[0], crossover[1]);
    std::fclose(js);
    std::printf("\nwrote %s\n", outPath);

    std::printf(
        "\nWhile write sets fit the hierarchy the bounded machine "
        "rides for free; past the\ncapacity boundary it pays retries "
        "and serialized fallback, while the overflow\ntable keeps "
        "full HMTX pipelining (§5.4).\n");
    return crossoverEverywhere ? 0 : 2;
}
