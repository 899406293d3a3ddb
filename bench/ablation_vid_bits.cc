/**
 * @file
 * Ablation of the VID width m (§4.5/§4.6): narrow VIDs shrink the
 * per-line metadata but exhaust the window quickly, stalling the
 * DSWP pipeline on every VID reset until the maximum VID commits.
 * The paper "settled on 6 as a fair medium".
 */

#include "bench/common.hh"

using namespace hmtx;
using namespace hmtx::bench;

int
main()
{
    std::printf("Ablation §4.6: VID width vs. reset stalls "
                "(PS-DSWP, 4 cores)\n");

    for (const char* name : {"164.gzip", "ispell"}) {
        auto seqWl = workloads::makeByName(name);
        sim::MachineConfig base;
        runtime::ExecResult seq =
            runtime::Runner::runSequential(*seqWl, base);

        std::printf("\n%s (%llu iterations)\n", name,
                    static_cast<unsigned long long>(
                        seqWl->iterations()));
        rule(84);
        std::printf("%-6s | %-12s | %-9s | %-10s | %-13s | %-12s\n",
                    "m", "cycles", "speedup", "VID resets",
                    "stall cycles", "extra bits/l");
        rule(84);
        for (unsigned bits : {3u, 4u, 6u, 8u}) {
            sim::MachineConfig cfg;
            cfg.vidBits = bits;
            auto wl = workloads::makeByName(name);
            runtime::ExecResult r = runtime::Runner::runHmtx(*wl, cfg);
            requireChecksum(name, seq, r);
            std::printf(
                "%-6u | %12llu | %8.2fx | %10llu | %13llu | %12u\n",
                bits, static_cast<unsigned long long>(r.cycles),
                speedup(seq, r),
                static_cast<unsigned long long>(r.vidResets),
                static_cast<unsigned long long>(r.vidStallCycles),
                2 * bits);
        }
        rule(84);
    }
    std::printf(
        "\nSmall m: frequent resets stall the pipeline until the "
        "max-VID transaction commits.\nLarge m: more SRAM bits per "
        "line and wider comparators (§4.5). m = 6 balances the\n"
        "two, as the paper chose.\n");
    return 0;
}
