/**
 * @file
 * Standalone bounded-exhaustive model-checking driver (DESIGN.md §14).
 *
 *   hmtx_mc [--programs N] [--cores N] [--ops N] [--seed0 S]
 *           [--cells GROUPS] [--budget N] [--delivery N]
 *           [--no-prune] [--no-shrink] [--corpus-out DIR]
 *
 * Where the fuzzer (hmtx_fuzz) samples long schedules, this driver
 * *enumerates*: each seed yields a small multi-core program
 * (generateProgram), and explore() replays every interleaving of its
 * per-core sequences — sleep-set-pruned unless --no-prune — through
 * the differential runner. On the first divergence the diverging
 * interleaving is ddmin-shrunk and written as an ordinary flattened
 * replay file, so `hmtx_fuzz --replay` and corpus_replay_test rerun
 * it unchanged. --delivery N additionally branches on the first N
 * directory delivery decisions of every interleaving.
 */

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "check/differ.hh"
#include "check/explorer.hh"
#include "check/schedule.hh"

using namespace hmtx;
using namespace hmtx::check;

namespace
{

void
usage()
{
    std::cerr <<
        "usage: hmtx_mc [--programs N] [--cores N] [--ops N]\n"
        "               [--seed0 S] [--cells GROUPS] [--budget N]\n"
        "               [--delivery N] [--no-prune] [--no-shrink]\n"
        "               [--corpus-out DIR]\n"
        "GROUPS: comma list of hmtx, btx, ltd, or all (default)\n";
}

bool
parseCells(const std::string& arg, unsigned& mask)
{
    mask = 0;
    std::size_t pos = 0;
    while (pos <= arg.size()) {
        std::size_t comma = arg.find(',', pos);
        std::string tok = arg.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (tok == "all")
            mask |= kGroupAll;
        else if (tok == "hmtx")
            mask |= kGroupHmtx;
        else if (tok == "btx")
            mask |= kGroupBtx;
        else if (tok == "ltd")
            mask |= kGroupLtd;
        else
            return false;
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return mask != 0;
}

int
reportDivergence(const ExploreResult& r, bool shrink,
                 const std::string& corpusDir, std::uint64_t seed,
                 unsigned groupMask)
{
    std::cerr << "DIVERGENCE (program seed " << seed
              << ", interleaving " << r.stats.explored << ", op "
              << r.div.opIndex << "): " << r.div.what << "\n";

    Schedule minimal = r.witness;
    if (shrink) {
        std::cerr << "shrinking " << minimal.ops.size() << " ops...\n";
        minimal = shrinkSchedule(minimal, 4000, groupMask);
        std::cerr << "minimal schedule: " << minimal.ops.size()
                  << " ops\n";
        Divergence dmin = runSchedule(minimal, nullptr, groupMask);
        if (dmin.found)
            std::cerr << "minimal divergence: " << dmin.what << "\n";
    }

    std::string out = serialize(minimal);
    std::string path =
        (corpusDir.empty() ? std::string(".") : corpusDir) +
        "/mc-seed" + std::to_string(seed) + ".sched";
    std::ofstream f(path);
    if (f.good()) {
        f << out;
        std::cerr << "wrote " << path << "\n";
    } else {
        std::cerr << "could not write " << path << "\n";
    }
    std::cerr << "--- replay file ---\n" << out;
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::uint64_t programs = 50;
    unsigned cores = 2;
    unsigned ops = 6;
    std::uint64_t seed0 = 1;
    unsigned groupMask = kGroupAll;
    std::uint64_t budget = 1u << 16;
    unsigned delivery = 0;
    bool prune = true;
    bool shrink = true;
    std::string corpusDir;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs an argument\n";
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--programs")
            programs = std::strtoull(next("--programs"), nullptr, 0);
        else if (a == "--cores")
            cores = static_cast<unsigned>(
                std::strtoul(next("--cores"), nullptr, 0));
        else if (a == "--ops")
            ops = static_cast<unsigned>(
                std::strtoul(next("--ops"), nullptr, 0));
        else if (a == "--seed0")
            seed0 = std::strtoull(next("--seed0"), nullptr, 0);
        else if (a == "--budget")
            budget = std::strtoull(next("--budget"), nullptr, 0);
        else if (a == "--delivery")
            delivery = static_cast<unsigned>(
                std::strtoul(next("--delivery"), nullptr, 0));
        else if (a == "--no-prune")
            prune = false;
        else if (a == "--no-shrink")
            shrink = false;
        else if (a == "--corpus-out")
            corpusDir = next("--corpus-out");
        else if (a == "--cells") {
            if (!parseCells(next("--cells"), groupMask)) {
                std::cerr << "bad --cells value\n";
                usage();
                return 2;
            }
        } else {
            std::cerr << "unknown argument: " << a << "\n";
            usage();
            return 2;
        }
    }
    if (cores < 2 || ops == 0) {
        std::cerr << "need --cores >= 2 and --ops >= 1\n";
        return 2;
    }

    ExploreConfig ec;
    ec.groupMask = groupMask;
    ec.prune = prune;
    ec.maxInterleavings = budget;
    ec.deliveryPoints = delivery;

    ExploreStats total;
    std::uint64_t exhausted = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t seed = seed0; seed < seed0 + programs; ++seed) {
        Schedule prog = generateProgram(seed, cores, ops);
        ExploreResult r;
        try {
            r = explore(prog, ec);
        } catch (const std::invalid_argument& e) {
            std::cerr << "seed " << seed << ": " << e.what() << "\n";
            return 2;
        }
        total.explored += r.stats.explored;
        total.pruned += r.stats.pruned;
        total.deliveryRuns += r.stats.deliveryRuns;
        total.deliveryPointsSeen += r.stats.deliveryPointsSeen;
        total.envAborts += r.stats.envAborts;
        if (r.stats.budgetExhausted)
            ++exhausted;
        if (r.div.found)
            return reportDivergence(r, shrink, corpusDir, seed,
                                    groupMask);
        if ((seed - seed0 + 1) % 100 == 0)
            std::cerr << (seed - seed0 + 1) << "/" << programs
                      << " programs clean\n";
    }

    // Replay throughput, so CI logs show what a campaign costs.
    const double hostS = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();
    std::cout << "mc campaign clean: " << programs << " programs ("
              << cores << " cores x " << ops << " ops)\n"
              << "  interleavings explored=" << total.explored
              << " pruned=" << total.pruned << "\n"
              << "  host seconds=" << hostS << " interleavings/s="
              << (hostS > 0 ? double(total.explored) / hostS : 0.0)
              << "\n"
              << "  deliveryRuns=" << total.deliveryRuns
              << " deliveryPointsSeen=" << total.deliveryPointsSeen
              << "\n"
              << "  envAborts=" << total.envAborts
              << " budgetExhausted=" << exhausted << "\n";
    if (total.envAborts != 0)
        std::cout << "  WARNING: environmental capacity aborts fired; "
                     "the pruned pass is not exhaustive (§14)\n";
    return 0;
}
