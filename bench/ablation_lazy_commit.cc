/**
 * @file
 * Ablation of lazy commit/abort processing (§5.3) against the naive
 * §4.4 scheme that walks and transitions every speculative line on
 * every commit. With per-transaction read/write sets of hundreds of
 * lines, the walk serializes commits and stalls the pipeline.
 */

#include "bench/common.hh"

using namespace hmtx;
using namespace hmtx::bench;

int
main()
{
    std::printf("Ablation §5.3: lazy vs naive (eager) commit/abort "
                "processing\n");
    rule(104);
    std::printf("%-12s | %-13s | %-13s | %-8s | %-12s | %-13s | %-14s\n",
                "Benchmark", "lazy cycles", "eager cycles",
                "slowdown", "set (lines)", "lazy commitcy",
                "eager commitcy");
    rule(104);

    // The large-footprint benchmarks expose the cost; ispell's tiny
    // sets barely notice — exactly the scaling §3.3 worries about.
    for (const char* name :
         {"ispell", "164.gzip", "197.parser", "130.li",
          "256.bzip2"}) {
        sim::MachineConfig lazy;
        auto a = workloads::makeByName(name);
        runtime::ExecResult rl = runtime::Runner::runHmtx(*a, lazy);

        sim::MachineConfig eager = lazy;
        eager.txMode = TxMode::EagerHmtx;
        auto b = workloads::makeByName(name);
        runtime::ExecResult re = runtime::Runner::runHmtx(*b, eager);
        requireChecksum(name, rl, re);

        double lines = rl.transactions == 0 ? 0
            : static_cast<double>(rl.stats.combinedSetLines) /
                static_cast<double>(rl.transactions);
        std::printf(
            "%-12s | %13llu | %13llu | %7.2fx | %12.0f | %13llu | %14llu\n",
            name, static_cast<unsigned long long>(rl.cycles),
            static_cast<unsigned long long>(re.cycles),
            static_cast<double>(re.cycles) /
                static_cast<double>(rl.cycles),
            lines,
            static_cast<unsigned long long>(
                rl.stats.commitProcessingCycles),
            static_cast<unsigned long long>(
                re.stats.commitProcessingCycles));
    }
    rule(104);
    std::printf(
        "\nLazy processing commits in O(1) (set LC VID, flash the CB "
        "column) and reconciles\nlines on next touch; the naive "
        "scheme's cost grows with the speculative footprint,\n"
        "which is why Vachharajani's design could not support large "
        "read/write sets (§7.1).\n");
    return 0;
}
