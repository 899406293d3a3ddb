/**
 * @file
 * Functional main-memory model.
 */

#ifndef HMTX_SIM_MEMORY_HH
#define HMTX_SIM_MEMORY_HH

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "core/types.hh"

namespace hmtx::sim
{

/** One cache line's worth of backing data. */
using LineData = std::array<std::uint8_t, kLineBytes>;

// Simulated memory is little-endian; the byte copies below rely on
// the host agreeing.
static_assert(std::endian::native == std::endian::little);

/**
 * Reads the little-endian integer of @p size bytes at byte @p off of
 * @p d. @pre size <= 8 and off + size <= kLineBytes
 */
inline std::uint64_t
readLe(const LineData& d, unsigned off, unsigned size)
{
    std::uint64_t v = 0;
    std::memcpy(&v, d.data() + off, size);
    return v;
}

/** Writes the low @p size bytes of @p v at byte @p off of @p d,
 *  little-endian. @pre size <= 8 and off + size <= kLineBytes */
inline void
writeLe(LineData& d, unsigned off, std::uint64_t v, unsigned size)
{
    std::memcpy(d.data() + off, &v, size);
}

/**
 * Sparse functional main memory. Lines materialize zero-filled on
 * first touch. Main memory only ever holds committed data: speculative
 * versions live in the caches until their transaction commits (the one
 * exception, §5.4, writes back *non-speculative* S-O data, which is by
 * definition committed).
 */
class MainMemory
{
  public:
    /** Reads a full line. */
    const LineData&
    readLine(Addr a)
    {
        return lines_[lineAddr(a)];
    }

    /** Writes a full line. */
    void
    writeLine(Addr a, const LineData& d)
    {
        lines_[lineAddr(a)] = d;
    }

    /**
     * Reads an integer of @p size bytes (little-endian) at @p a.
     * @pre the access does not cross a line boundary
     */
    std::uint64_t
    read(Addr a, unsigned size)
    {
        return readLe(lines_[lineAddr(a)], lineOffset(a), size);
    }

    /** Writes an integer of @p size bytes (little-endian) at @p a. */
    void
    write(Addr a, std::uint64_t v, unsigned size)
    {
        writeLe(lines_[lineAddr(a)], lineOffset(a), v, size);
    }

    /** Makes the touched lines exactly @p lines, (address, data) pairs
     *  as forEachLine() lists them: in place when the same lines are
     *  touched (no node freed or allocated), else by clearing the
     *  table (it keeps its buckets) and inserting them. */
    template <typename Lines>
    void
    assign(const Lines& lines)
    {
        if (lines_.size() == lines.size()) {
            bool same = true;
            for (const auto& [a, d] : lines) {
                const auto it = lines_.find(a);
                if (it == lines_.end()) {
                    same = false;
                    break;
                }
                it->second = d;
            }
            if (same)
                return;
        }
        lines_.clear();
        for (const auto& [a, d] : lines)
            lines_.emplace(a, d);
    }

    /** Number of lines ever touched. */
    std::size_t touchedLines() const { return lines_.size(); }

    /**
     * Pre-sizes the backing table for at least @p n lines. While it
     * holds capacity for every key it receives, inserts will not
     * rehash, so references and iterators stay valid — bulk writers
     * use this to insert while a forEachLine() walk is in flight.
     */
    void reserveLines(std::size_t n) { lines_.reserve(n); }

    /**
     * Applies @p fn(lineAddr, data) to every touched line. Iteration
     * order is the unordered_map's; callers that compare images must
     * not depend on order (the differential tests collect into sorted
     * maps).
     */
    template <typename Fn>
    void
    forEachLine(Fn&& fn) const
    {
        for (const auto& [a, d] : lines_)
            fn(a, d);
    }

  private:
    std::unordered_map<Addr, LineData> lines_;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_MEMORY_HH
