/**
 * @file
 * Open-addressed, address-keyed hash table for the memory system's
 * indexes (per-VID read/write sets, overflow-table directory, the
 * self-checks' scratch). These sit on the per-access path, so unlike a
 * node-based std::unordered_map they make no heap allocation per
 * insert: storage is two flat arrays that only grow, and clear() keeps
 * the capacity.
 */

#ifndef HMTX_SIM_FLAT_INDEX_HH
#define HMTX_SIM_FLAT_INDEX_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/types.hh"

namespace hmtx::sim
{

/** Value type that turns a FlatAddrMap into a set (stores nothing). */
struct FlatNoValue
{};

/**
 * Map from Addr to @p V with power-of-two capacity, linear probing and
 * backward-shift deletion (no tombstones, so probe chains never rot
 * under insert/erase churn).
 *
 * Keys may be any Addr except kEmptyKey (~0), which no line address,
 * VID or word address in the simulator can take. Storage is allocated
 * by the first insert, so a table that is never written costs nothing
 * — the model checker builds thousands of short-lived CacheSystems.
 * The load factor stays at or below 1/2.
 *
 * Pointers returned by find()/operator[] stay valid until the next
 * insert of a new key or the next erase.
 */
template <typename V>
class FlatAddrMap
{
  public:
    static constexpr Addr kEmptyKey = ~Addr{0};
    static constexpr bool kIsSet = std::is_empty_v<V>;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Slots allocated (0 until the first insert). */
    std::size_t capacity() const { return keys_.size(); }

    V*
    find(Addr k) requires(!kIsSet)
    {
        const std::size_t s = slotOf(k);
        return s == kNone ? nullptr : &vals_[s];
    }

    const V*
    find(Addr k) const requires(!kIsSet)
    {
        const std::size_t s = slotOf(k);
        return s == kNone ? nullptr : &vals_[s];
    }

    bool contains(Addr k) const { return slotOf(k) != kNone; }

    /** Value of @p k, value-initialized and inserted when absent. */
    V&
    operator[](Addr k) requires(!kIsSet)
    {
        bool fresh = false;
        const std::size_t s = insertSlot(k, fresh);
        if (fresh)
            vals_[s] = V{};
        return vals_[s];
    }

    /** Adds @p k to a set; true if it was absent. */
    bool
    insert(Addr k) requires(kIsSet)
    {
        bool fresh = false;
        insertSlot(k, fresh);
        return fresh;
    }

    /** Removes @p k; false when it was absent. */
    bool
    erase(Addr k)
    {
        std::size_t i = slotOf(k);
        if (i == kNone)
            return false;
        // Backward shift: pull each later member of the probe run into
        // the hole unless its home lies cyclically in (hole, member],
        // where moving it would put it before its own home.
        const std::size_t mask = keys_.size() - 1;
        for (std::size_t j = (i + 1) & mask; keys_[j] != kEmptyKey;
             j = (j + 1) & mask) {
            const std::size_t dist = (j - home(keys_[j])) & mask;
            if (dist >= ((j - i) & mask)) {
                keys_[i] = keys_[j];
                if constexpr (!kIsSet)
                    vals_[i] = vals_[j];
                i = j;
            }
        }
        keys_[i] = kEmptyKey;
        --size_;
        return true;
    }

    /** Empties the table, keeping its capacity. */
    void
    clear()
    {
        if (size_ == 0)
            return;
        std::fill(keys_.begin(), keys_.end(), kEmptyKey);
        size_ = 0;
    }

    /**
     * Applies @p fn to every entry in slot order: fn(Addr) for a set,
     * fn(Addr, const V&) for a map. @p fn must not insert or erase.
     */
    template <typename Fn>
    void
    forEach(Fn&& fn) const
    {
        for (std::size_t s = 0; s < keys_.size(); ++s) {
            if (keys_[s] == kEmptyKey)
                continue;
            if constexpr (kIsSet)
                fn(keys_[s]);
            else
                fn(keys_[s], vals_[s]);
        }
    }

  private:
    static constexpr std::size_t kNone = ~std::size_t{0};
    static constexpr std::size_t kMinCapacity = 16;

    /** Fibonacci hashing: the top bits of k * 2^64/phi. Line
     *  addresses have six zero low bits, which a mask of k itself
     *  would pile into one slot in 64. */
    std::size_t
    home(Addr k) const
    {
        return static_cast<std::size_t>(
            (k * 0x9e3779b97f4a7c15ull) >> shift_);
    }

    std::size_t
    slotOf(Addr k) const
    {
        assert(k != kEmptyKey);
        if (size_ == 0)
            return kNone;
        const std::size_t mask = keys_.size() - 1;
        for (std::size_t s = home(k);; s = (s + 1) & mask) {
            if (keys_[s] == k)
                return s;
            if (keys_[s] == kEmptyKey)
                return kNone;
        }
    }

    std::size_t
    insertSlot(Addr k, bool& fresh)
    {
        assert(k != kEmptyKey);
        if (!keys_.empty()) {
            const std::size_t mask = keys_.size() - 1;
            std::size_t s = home(k);
            for (; keys_[s] != kEmptyKey; s = (s + 1) & mask)
                if (keys_[s] == k)
                    return s;
            if ((size_ + 1) * 2 <= keys_.size())
                return place(s, k, fresh);
        }
        grow();
        const std::size_t mask = keys_.size() - 1;
        std::size_t s = home(k);
        while (keys_[s] != kEmptyKey)
            s = (s + 1) & mask;
        return place(s, k, fresh);
    }

    std::size_t
    place(std::size_t s, Addr k, bool& fresh)
    {
        keys_[s] = k;
        ++size_;
        fresh = true;
        return s;
    }

    void
    grow()
    {
        const std::size_t cap =
            std::max(kMinCapacity, keys_.size() * 2);
        std::vector<Addr> oldKeys(cap, kEmptyKey);
        oldKeys.swap(keys_);
        std::vector<V> oldVals;
        if constexpr (!kIsSet) {
            oldVals.resize(cap);
            oldVals.swap(vals_);
        }
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
        const std::size_t mask = cap - 1;
        for (std::size_t o = 0; o < oldKeys.size(); ++o) {
            if (oldKeys[o] == kEmptyKey)
                continue;
            std::size_t s = home(oldKeys[o]);
            while (keys_[s] != kEmptyKey)
                s = (s + 1) & mask;
            keys_[s] = oldKeys[o];
            if constexpr (!kIsSet)
                vals_[s] = std::move(oldVals[o]);
        }
    }

    std::vector<Addr> keys_;
    /** Parallel to keys_; stays empty for a set. */
    std::vector<V> vals_;
    std::size_t size_ = 0;
    unsigned shift_ = 64;
};

/** Address set over the same flat table. */
using FlatAddrSet = FlatAddrMap<FlatNoValue>;

} // namespace hmtx::sim

#endif // HMTX_SIM_FLAT_INDEX_HH
