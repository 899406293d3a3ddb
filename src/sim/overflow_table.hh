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
#include <vector>

#include "core/types.hh"
#include "sim/cache.hh"
#include "sim/flat_index.hh"

namespace hmtx::sim
{

/**
 * Holds speculative line versions that fell out of the last-level
 * cache, instead of aborting their transaction (§5.4's fallback).
 * Conceptually this is a hash table in main memory walked by a
 * hardware engine; the simulator keeps the entries host-side (a flat
 * address index over recycled per-address version lists, so steady
 * spill/refill churn allocates nothing) and the cache system charges
 * the table-walk latency on every spill and refill.
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
        LineSet& v = listFor(line.base);
        v.lines.push_back(line);
        v.data.push_back(data);
        ++spills_;
    }

    /**
     * All spilled versions of @p la (mutable for reconciliation);
     * `lines[i]`'s payload is `data[i]`. The pointer is valid until
     * the next spill().
     */
    LineSet*
    versionsOf(Addr la)
    {
        const std::uint32_t* slot = index_.find(la);
        return slot ? &lists_[*slot].versions : nullptr;
    }

    const LineSet*
    versionsOf(Addr la) const
    {
        const std::uint32_t* slot = index_.find(la);
        return slot ? &lists_[*slot].versions : nullptr;
    }

    /**
     * Removes @p idx-th version of @p la (after a refill promoted it
     * back into a cache).
     */
    void
    remove(Addr la, std::size_t idx)
    {
        const std::uint32_t* slot = index_.find(la);
        if (!slot)
            return;
        auto& v = lists_[*slot].versions;
        v.lines.erase(v.lines.begin() + static_cast<std::ptrdiff_t>(idx));
        v.data.erase(v.data.begin() + static_cast<std::ptrdiff_t>(idx));
        if (v.lines.empty())
            release(*slot);
        ++refills_;
    }

    /** Applies @p fn(Line&, LineData&) to every entry; entries left
     *  Invalid are erased. */
    template <typename Fn>
    void
    forEach(Fn&& fn)
    {
        for (std::uint32_t s = 0; s < lists_.size(); ++s) {
            if (lists_[s].addr == kFree)
                continue;
            auto& v = lists_[s].versions;
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
                release(s);
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
        for (const AddrList& list : lists_)
            for (std::size_t i = 0; i < list.versions.lines.size(); ++i)
                fn(list.versions.lines[i], list.versions.data[i]);
    }

    /**
     * True when no versions are spilled. The snoop path checks this
     * before probing versionsOf() so runs that never overflow pay no
     * hash lookup at all.
     */
    bool empty() const { return index_.empty(); }

    /** Entries currently held. */
    std::size_t
    size() const
    {
        std::size_t n = 0;
        for (const AddrList& list : lists_)
            n += list.versions.lines.size();
        return n;
    }

    /**
     * Empties the table and zeroes its counters, keeping every
     * version list's capacity. The free list is rebuilt so lists are
     * taken in slot order 0, 1, 2, ... — the order a fresh table
     * appends them — which keeps forEach() order, and with it every
     * bulk walk, identical to a just-constructed table's.
     */
    void
    reset()
    {
        index_.clear();
        free_.clear();
        for (std::uint32_t s = static_cast<std::uint32_t>(lists_.size());
             s-- > 0;) {
            lists_[s].addr = kFree;
            lists_[s].versions.lines.clear();
            lists_[s].versions.data.clear();
            free_.push_back(s);
        }
        spills_ = 0;
        refills_ = 0;
    }

    /** Lines ever spilled. */
    std::uint64_t spills() const { return spills_; }

    /** Lines ever refilled into a cache. */
    std::uint64_t refills() const { return refills_; }

    /** Table-walk cost charged per spill or refill, in cycles. */
    static constexpr Cycles kWalkCycles = 60;

  private:
    static constexpr Addr kFree = FlatAddrMap<std::uint32_t>::kEmptyKey;

    /** One address's versions, in spill order. A released list stays
     *  in lists_ with its vectors' capacity for the next address. */
    struct AddrList
    {
        Addr addr = kFree;
        LineSet versions;
    };

    /** The version list of @p la, taking a free one when absent. */
    LineSet&
    listFor(Addr la)
    {
        if (const std::uint32_t* slot = index_.find(la))
            return lists_[*slot].versions;
        std::uint32_t slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
        } else {
            slot = static_cast<std::uint32_t>(lists_.size());
            lists_.emplace_back();
        }
        lists_[slot].addr = la;
        index_[la] = slot;
        return lists_[slot].versions;
    }

    /** Unmaps the (empty) list in @p slot and files it as free. */
    void
    release(std::uint32_t slot)
    {
        index_.erase(lists_[slot].addr);
        lists_[slot].addr = kFree;
        free_.push_back(slot);
    }

    /** Spilled address -> its list in lists_. */
    FlatAddrMap<std::uint32_t> index_;
    std::vector<AddrList> lists_;
    /** Indices of released lists, reused last-in first-out. */
    std::vector<std::uint32_t> free_;
    std::uint64_t spills_ = 0;
    std::uint64_t refills_ = 0;
};

} // namespace hmtx::sim

#endif // HMTX_SIM_OVERFLOW_TABLE_HH
