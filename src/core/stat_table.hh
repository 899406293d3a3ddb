/**
 * @file
 * Field tables for the statistics structs. Each stats struct lists its
 * counters once, in a `static constexpr StatField<S> kFields[]` next to
 * the members, and a static_assert after the struct checks that the
 * table's entries account for sizeof(S). The text report, the BENCH
 * JSON writer and the fuzz and model-checking sums walk that table
 * instead of naming each counter again.
 */

#ifndef HMTX_CORE_STAT_TABLE_HH
#define HMTX_CORE_STAT_TABLE_HH

#include <cstdint>
#include <iterator>

namespace hmtx
{

/** How a field combines across runs. */
enum class StatKind
{
    /** Events counted; runs add up. */
    Counter,
    /** A maximum over the run; runs combine by taking the larger. */
    HighWater,
};

/** One uint64_t field of stats struct @p S. */
template <typename S>
struct StatField
{
    /** Row name in StatsReport, key in the BENCH reports. */
    const char* name;
    std::uint64_t S::*member;
    const char* desc;
    StatKind kind = StatKind::Counter;
};

/**
 * Folds @p from into @p into through S::kFields: counters sum,
 * high-water marks take the maximum, members outside the table are
 * left alone. Allocation-free.
 */
template <typename S>
void
accumulate(S& into, const S& from)
{
    for (const StatField<S>& f : S::kFields) {
        std::uint64_t& v = into.*f.member;
        const std::uint64_t w = from.*f.member;
        v = f.kind == StatKind::HighWater ? (w > v ? w : v) : v + w;
    }
}

} // namespace hmtx

#endif // HMTX_CORE_STAT_TABLE_HH
