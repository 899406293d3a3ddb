/**
 * @file
 * Whole-ExecResult comparison for tests, with a failure message that
 * names each field that differs.
 */

#ifndef HMTX_TESTS_WORKLOADS_EXEC_RESULT_MATCH_HH
#define HMTX_TESTS_WORKLOADS_EXEC_RESULT_MATCH_HH

#include <sstream>

#include <gtest/gtest.h>

#include "core/stat_table.hh"
#include "runtime/executors.hh"

namespace hmtx::workloads
{

/** Appends "name: want vs got" for one field when the two differ. */
template <typename T>
void
noteField(std::ostream& os, const char* name, const T& want, const T& got)
{
    if (!(want == got))
        os << "\n  " << name << ": " << want << " vs " << got;
}

/** noteField() for every counter of a stats struct's kFields. */
template <typename S>
void
noteStats(std::ostream& os, const S& want, const S& got)
{
    for (const StatField<S>& f : S::kFields)
        noteField(os, f.name, want.*f.member, got.*f.member);
}

/**
 * Success when @p got equals @p want field for field
 * (ExecResult::operator==); otherwise a failure that lists every
 * field that differs, expected value first.
 */
inline ::testing::AssertionResult
sameResult(const runtime::ExecResult& want, const runtime::ExecResult& got)
{
    if (got == want)
        return ::testing::AssertionSuccess();
    std::ostringstream os;
    noteField(os, "model", want.model, got.model);
    noteField(os, "cycles", want.cycles, got.cycles);
    noteField(os, "checksum", want.checksum, got.checksum);
    noteField(os, "instructions", want.instructions, got.instructions);
    noteField(os, "transactions", want.transactions, got.transactions);
    noteField(os, "vidResets", want.vidResets, got.vidResets);
    noteField(os, "vidStallCycles", want.vidStallCycles,
              got.vidStallCycles);
    noteField(os, "branches", want.branches, got.branches);
    noteField(os, "mispredicts", want.mispredicts, got.mispredicts);
    noteField(os, "smtxMisspeculations", want.smtxMisspeculations,
              got.smtxMisspeculations);
    noteStats(os, want.stats, got.stats);
    noteStats(os, want.txStats, got.txStats);
    noteStats(os, want.indexStats, got.indexStats);
    return ::testing::AssertionFailure()
        << "ExecResult differs (expected vs got):" << os.str();
}

} // namespace hmtx::workloads

#endif // HMTX_TESTS_WORKLOADS_EXEC_RESULT_MATCH_HH
