/**
 * @file
 * Regenerates Figure 2: SMTX whole-program speedup over sequential
 * execution with a minimal read/write set (expert manual
 * transformation) vs. a substantial one (speculation validation on
 * the shared-data accesses). More validation turns slight speedups
 * into substantial slowdowns — the motivation for hardware MTX
 * support.
 */

#include "bench/common.hh"

using namespace hmtx;
using namespace hmtx::bench;

int
main()
{
    sim::MachineConfig cfg;

    std::printf("Figure 2: SMTX whole-program speedup over "
                "sequential (4 cores)\n");
    std::printf("(hot-loop speedups folded through Amdahl's law with "
                "Table 1 hot-loop fractions)\n");
    rule();
    std::printf("%-12s | %-10s | %-12s | %-14s\n", "Benchmark",
                "hot loop%", "min R/W set", "substantial R/W");
    rule();

    std::vector<double> minS, maxS;
    for (auto& wl : workloads::makeSuite()) {
        const std::string name = wl->name();
        if (!workloads::hasSmtxComparison(name))
            continue;
        auto seqWl = workloads::makeByName(name);
        auto minWl = workloads::makeByName(name);
        auto maxWl = workloads::makeByName(name);

        runtime::ExecResult seq =
            runtime::Runner::runSequential(*seqWl, cfg);
        runtime::ExecResult rmin = smtx::SmtxRunner::run(
            *minWl, cfg, smtx::RwSetMode::Minimal);
        runtime::ExecResult rmax = smtx::SmtxRunner::run(
            *maxWl, cfg, smtx::RwSetMode::Maximal);
        requireChecksum(name, seq, rmin);
        requireChecksum(name, seq, rmax);

        double f = wl->hotLoopFraction();
        double wMin = wholeProgramSpeedup(f, speedup(seq, rmin));
        double wMax = wholeProgramSpeedup(f, speedup(seq, rmax));
        minS.push_back(wMin);
        maxS.push_back(wMax);
        std::printf("%-12s | %9.1f%% | %11.2fx | %13.2fx\n",
                    name.c_str(), f * 100, wMin, wMax);
    }
    rule();
    std::printf("%-12s | %10s | %11.2fx | %13.2fx\n", "Geomean", "",
                geomean(minS), geomean(maxS));
    rule();
    std::printf("\nPaper shape: minimal sets give modest speedups; "
                "adding validation to shared-data\naccesses turns "
                "them into substantial slowdowns (\"more speculation "
                "validation turns\nslight speedups into substantial "
                "slowdowns\", §2.3).\n");
    return 0;
}
