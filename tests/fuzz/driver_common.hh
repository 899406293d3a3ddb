/**
 * @file
 * Pieces shared by the hmtx_fuzz and hmtx_mc drivers.
 */

#ifndef HMTX_TESTS_FUZZ_DRIVER_COMMON_HH
#define HMTX_TESTS_FUZZ_DRIVER_COMMON_HH

#include <fstream>
#include <iostream>
#include <string>

#include "check/differ.hh"
#include "check/schedule.hh"

namespace hmtx::check
{

/** Parses a --cells value (comma list of hmtx, btx, ltd, all) into
 *  @p mask; false on an unknown or empty list. */
inline bool
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

/** Reports divergence @p d found at @p where: shrinks @p witness if
 *  asked, writes it to @p corpusDir (or the cwd) as @p fileName,
 *  echoes it to stderr and returns the exit status 1. */
inline int
reportDivergence(const std::string& where, const Divergence& d,
                 const Schedule& witness, bool shrink,
                 const std::string& corpusDir,
                 const std::string& fileName, unsigned groupMask)
{
    std::cerr << "DIVERGENCE (" << where << ", op " << d.opIndex
              << "): " << d.what << "\n";
    Schedule minimal = witness;
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
    std::string path = (corpusDir.empty() ? "." : corpusDir) + "/" + fileName;
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

} // namespace hmtx::check

#endif // HMTX_TESTS_FUZZ_DRIVER_COMMON_HH
