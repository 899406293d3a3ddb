/**
 * @file
 * Memory-resident overflow table for speculative lines (§8 future
 * work): "unlimited read and write sets could be supported by
 * overflowing speculatively modified versions of lines into memory
 * and managing them via data structures", as in Prvulovic et al.
 * [27].
 */

#ifndef HMTX_SIM_OVERFLOW_TABLE_HH
#define HMTX_SIM_OVERFLOW_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "core/types.hh"
#include "sim/cache.hh"

namespace hmtx::sim
{

/**
 * Holds speculative line versions that fell out of the last-level
 * cache, instead of aborting their transaction (§5.4's fallback).
 * Conceptually this is a hash table in main memory walked by a
 * hardware engine; the simulator keeps the entries host-side and the
 * cache system charges the table-walk latency on every spill and
 * refill.
 *
 * Entries keep their full protocol identity (state, VID tags, data,
 * dirtiness), so a refilled line continues exactly where it left off;
 * commit/abort/VID-reset reconciliation is applied lazily by the
 * cache system when it touches an entry, and eagerly on aborts.
 */
class OverflowTable
{
  public:
    /**
     * Spills @p line (metadata) with payload @p data into the table.
     * Spilled entries are detached from any cache, so the table is
     * where metadata and payload travel together.
     */
    void
    spill(const Line& line, const LineData& data)
    {
        auto& v = entries_[line.base];
        v.lines.push_back(line);
        v.data.push_back(data);
        ++spills_;
    }

    /** All spilled versions of @p la (mutable for reconciliation);
     *  `lines[i]`'s payload is `data[i]`. */
    LineSet*
    versionsOf(Addr la)
    {
        auto it = entries_.find(la);
        return it == entries_.end() ? nullptr : &it->second;
    }

    /**
     * Removes @p idx-th version of @p la (after a refill promoted it
     * back into a cache).
     */
    void
    remove(Addr la, std::size_t idx)
    {
        auto it = entries_.find(la);
        if (it == entries_.end())
            return;
        auto& v = it->second;
        v.lines.erase(v.lines.begin() + static_cast<std::ptrdiff_t>(idx));
        v.data.erase(v.data.begin() + static_cast<std::ptrdiff_t>(idx));
        if (v.lines.empty())
            entries_.erase(it);
        ++refills_;
    }

    /** Applies @p fn(Line&, LineData&) to every entry; entries left
     *  Invalid are erased. */
    template <typename Fn>
    void
    forEach(Fn&& fn)
    {
        for (auto it = entries_.begin(); it != entries_.end();) {
            auto& v = it->second;
            for (std::size_t i = 0; i < v.lines.size(); ++i)
                fn(v.lines[i], v.data[i]);
            for (std::size_t i = v.lines.size(); i-- > 0;) {
                if (v.lines[i].state == State::Invalid) {
                    v.lines.erase(v.lines.begin() +
                                  static_cast<std::ptrdiff_t>(i));
                    v.data.erase(v.data.begin() +
                                 static_cast<std::ptrdiff_t>(i));
                }
            }
            if (v.lines.empty())
                it = entries_.erase(it);
            else
                ++it;
        }
    }

    /**
     * Read-only walk: applies @p fn(const Line&, const LineData&) to
     * every entry without reconciling or erasing anything. Observation
     * paths (checkInvariants) use this so a self-check never perturbs
     * the table the way the lazily-reconciling forEach() variants do.
     */
    template <typename Fn>
    void
    forEachConst(Fn&& fn) const
    {
        for (const auto& [a, v] : entries_)
            for (std::size_t i = 0; i < v.lines.size(); ++i)
                fn(v.lines[i], v.data[i]);
    }

    /**
     * True when no versions are spilled. The snoop path checks this
     * before probing versionsOf() so runs that never overflow pay no
     * hash lookup at all.
     */
    bool empty() const { return entries_.empty(); }

    /** Entries currently held. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const auto& [a, v] : entries_)
            n += v.lines.size();
        return n;
    }

    /** Lines ever spilled. */
    std::uint64_t spills() const { return spills_; }

    /** Lines ever refilled into a cache. */
    std::uint64_t refills() const { return refills_; }

    /** Table-walk cost charged per spill or refill, in cycles. */
    static constexpr Cycles kWalkCycles = 60;

  private:
    std::unordered_map<Addr, LineSet> entries_;
    std::uint64_t spills_ = 0;
    std::uint64_t refills_ = 0;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_OVERFLOW_TABLE_HH
