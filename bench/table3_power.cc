/**
 * @file
 * Regenerates Table 3: area, leakage, runtime dynamic power and
 * energy on the simulated 4-core machine, for commodity hardware vs.
 * hardware with the HMTX extensions, each running sequential,
 * SMTX-minimal and (where applicable) HMTX-maximal versions.
 */

#include "bench/common.hh"
#include "power/model.hh"

using namespace hmtx;
using namespace hmtx::bench;

namespace
{

struct Run
{
    runtime::ExecResult res;
    std::uint64_t comparisons = 0;
    std::uint64_t cascaded = 0;
};

double
geoEnergy(const power::PowerModel& pm, const std::vector<Run>& runs)
{
    std::vector<double> e;
    for (const Run& r : runs) {
        power::PowerResult p =
            pm.evaluate(r.res.stats, r.res.instructions,
                        r.comparisons, r.cascaded, r.res.cycles);
        e.push_back(p.energyJ);
    }
    return geomean(e);
}

double
geoDynamic(const power::PowerModel& pm, const std::vector<Run>& runs)
{
    std::vector<double> d;
    for (const Run& r : runs) {
        power::PowerResult p =
            pm.evaluate(r.res.stats, r.res.instructions,
                        r.comparisons, r.cascaded, r.res.cycles);
        d.push_back(p.dynamicW);
    }
    return geomean(d);
}

} // namespace

int
main()
{
    sim::MachineConfig cfg;

    // Gather runs per execution model. Energy uses simulated time
    // scaled to seconds at 2 GHz; our runs are ~10^6 cycles (vs the
    // paper's ~10^9), so energies are in the uJ-mJ range — the
    // *relative* rows are the reproduction target.
    std::vector<Run> seqAll, seqComp, smtxMin, hmtxAll, hmtxComp;
    for (auto& wl : workloads::makeSuite()) {
        const std::string name = wl->name();
        bool comp = workloads::hasSmtxComparison(name);

        auto s = workloads::makeByName(name);
        Run rs{runtime::Runner::runSequential(*s, cfg), 0, 0};
        seqAll.push_back(rs);
        if (comp)
            seqComp.push_back(rs);

        if (comp) {
            auto m = workloads::makeByName(name);
            Run rm{smtx::SmtxRunner::run(*m, cfg,
                                         smtx::RwSetMode::Minimal),
                   0, 0};
            smtxMin.push_back(rm);
        }

        auto h = workloads::makeByName(name);
        Run rh{runtime::Runner::runHmtx(*h, cfg), 0, 0};
        // Comparator activity approximation: every speculative access
        // performs one or two tag-VID comparisons (§4.5); the fast
        // path covers nearly all of them.
        rh.comparisons = 2 * (rh.res.stats.specLoads +
                              rh.res.stats.specStores);
        rh.cascaded = rh.comparisons / 500;
        hmtxAll.push_back(rh);
        if (comp)
            hmtxComp.push_back(rh);
    }

    power::PowerModel commodity(cfg, false);
    power::PowerModel extended(cfg, true);

    std::printf("Table 3: Area, power, and energy on a simulated "
                "4-core machine\n");
    rule(96);
    std::printf("%-11s %-22s | %-10s %-11s | %-12s | %-12s\n",
                "Hardware", "Exec Model", "Area mm^2",
                "Leakage W", "Dynamic W*", "Energy J*");
    rule(96);

    auto row = [&](const power::PowerModel& pm, const char* hw,
                   const char* model, const std::vector<Run>& runs) {
        std::printf("%-11s %-22s | %10.1f %11.3f | %12.3f | %12.3e\n",
                    hw, model, pm.area().totalMm2(), pm.leakageW(),
                    geoDynamic(pm, runs), geoEnergy(pm, runs));
    };

    row(commodity, "Commodity", "Sequential (All)", seqAll);
    row(commodity, "", "Sequential (Comp.)", seqComp);
    row(commodity, "", "SMTX, Min R/W", smtxMin);
    rule(96);
    row(extended, "+HMTX ext.", "Sequential (All)", seqAll);
    row(extended, "", "Sequential (Comp.)", seqComp);
    row(extended, "", "SMTX, Min R/W", smtxMin);
    row(extended, "", "HMTX, Max R/W (All)", hmtxAll);
    row(extended, "", "HMTX, Max R/W (Comp.)", hmtxComp);
    rule(96);
    std::printf(
        "\n* geometric means over the benchmarks of the row's set; "
        "our runs are ~1000x\n  shorter than the paper's, so "
        "absolute energies are smaller by that factor.\n"
        "Paper anchors: 107.1 -> 111.1 mm^2 (+4.0), leakage 5.515 -> "
        "5.607 W, HMTX dynamic\npower slightly above SMTX's while "
        "total energy drops thanks to shorter runtime.\n");
    return 0;
}
