/**
 * @file
 * Speculative Load Acknowledgment (SLA) buffering (§5.1).
 */

#ifndef HMTX_CORE_SLA_HH
#define HMTX_CORE_SLA_HH

#include <cstdint>
#include <vector>

#include "core/types.hh"

namespace hmtx
{

/** One pending speculative load acknowledgment (§5.1). */
struct SlaEntry
{
    /** Byte address of the acknowledged load. */
    Addr addr = 0;
    /** VID of the transaction that issued the load. */
    Vid vid = kNonSpecVid;
    /** Value the load observed; re-verified by the cache on receipt. */
    std::uint64_t value = 0;
    /** Access size in bytes. */
    unsigned size = 8;
};

/**
 * Per-core buffer of pending SLAs, "a structure similar to the store
 * queue" (§5.1).
 *
 * A branch-speculative load does not mark the line with its VID when it
 * executes; once the load commits (its guarding branches resolved
 * correctly), an SLA carrying (address, VID, observed value) is sent to
 * the cache system, which re-verifies the value and only then applies
 * the speculative marking. Loads squashed by a branch misprediction are
 * simply dropped from the buffer, which is what prevents wrong-path
 * loads from causing false misspeculation.
 *
 * The cache tells the core whether an SLA is even needed (the line may
 * already carry this VID); thanks to locality most loads need none
 * (Table 1, "% of Spec Loads Needing SLA").
 */
class SlaUnit
{
  public:
    /** @param capacity buffer depth before the core must drain */
    explicit SlaUnit(unsigned capacity = 32)
        : capacity_(capacity)
    {}

    /** Buffer depth. */
    unsigned capacity() const { return capacity_; }

    /** True if a push would overflow and force a drain first. */
    bool full() const { return pending_.size() >= capacity_; }

    /** Number of buffered acknowledgments. */
    std::size_t size() const { return pending_.size(); }

    /**
     * Buffers an acknowledgment for a load that the cache reported as
     * needing one.
     * @pre !full()
     */
    void
    push(const SlaEntry& e)
    {
        pending_.push_back(e);
        ++enqueued_;
    }

    /** The buffered entries, oldest first. */
    const std::vector<SlaEntry>& entries() const { return pending_; }

    /**
     * Sends every buffered entry; called when the guarding branches
     * of the buffered loads have resolved correctly and the
     * acknowledgments can go to the cache system. The buffer keeps its
     * storage for the next batch.
     */
    void
    drain()
    {
        sent_ += pending_.size();
        pending_.clear();
    }

    /**
     * Drops all buffered entries; called when a branch misprediction
     * squashes the loads that produced them.
     * @return number of squashed acknowledgments
     */
    std::size_t
    squash()
    {
        std::size_t n = pending_.size();
        squashed_ += n;
        pending_.clear();
        return n;
    }

    /** Total acknowledgments ever buffered. */
    std::uint64_t enqueued() const { return enqueued_; }

    /** Total acknowledgments sent to the cache system. */
    std::uint64_t sent() const { return sent_; }

    /** Total acknowledgments squashed with their loads. */
    std::uint64_t squashed() const { return squashed_; }

  private:
    unsigned capacity_;
    std::vector<SlaEntry> pending_;
    std::uint64_t enqueued_ = 0;
    std::uint64_t sent_ = 0;
    std::uint64_t squashed_ = 0;
};

} // namespace hmtx

#endif // HMTX_CORE_SLA_HH
