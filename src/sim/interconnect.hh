/**
 * @file
 * The coherence interconnect seam (§8): every way the cache system
 * touches the fabric — serializing a transaction, posting one-way
 * traffic, broadcasting group commit/abort, transferring a line from
 * a remote owner — goes through this interface. The HMTX version
 * rules are fabric-independent; implementations own only timing and
 * occupancy. `SnoopBus` models the paper's evaluated single bus,
 * `DirectoryFabric` the §8 address-interleaved directory banks; a
 * future sharded/NUMA fabric drops in behind the same seam.
 */

#ifndef HMTX_SIM_INTERCONNECT_HH
#define HMTX_SIM_INTERCONNECT_HH

#include <memory>
#include <memory_resource>
#include <vector>

#include "core/types.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace hmtx::sim
{

/**
 * One-way fabric operations: traffic the requester does not stall
 * for. Broadcast-class operations (group commit/abort, VID reset)
 * reach every cache; SLAs target one line's home; store-mark
 * aggregation collects the distributed read marks of a line's S-S
 * copies during an already-acquired store transaction.
 */
enum class FabricOp : std::uint8_t
{
    /** Speculative load acknowledgment for one line (§5.1). */
    Sla,
    /** Group-commit notification, all caches (§4.4). */
    GroupCommit,
    /** Group-abort notification, all caches (§4.4). */
    GroupAbort,
    /** VID-reset notification, all caches (§4.6). */
    VidReset,
    /**
     * Store-classification aggregation sweep over a line's
     * latest-version S-S copies (§4.3). Free on both modeled fabrics
     * (the preceding acquire() already holds the line's ordering
     * point); a sharded fabric would charge cross-shard collection
     * here.
     */
    StoreAggregate,
};

/**
 * A protocol-decision point where the fabric may legally reorder
 * concurrent message deliveries (DESIGN.md §14). Point-to-point
 * fabrics guarantee no global arrival order: when a message reaches
 * an ordering point (a directory bank) that is already busy, the
 * network is free to queue it behind the in-flight work *or* let it
 * overtake on another virtual channel. The default (no chooser
 * installed) is deterministic FIFO queueing — exactly the pre-hook
 * behaviour. The model checker installs a chooser to enumerate the
 * reordering freedom as explicit decision points; because delivery
 * order is timing-only, every choice must leave the architectural
 * outcome untouched, and the differential runner fails loudly if it
 * does not.
 */
class DeliveryChooser
{
  public:
    virtual ~DeliveryChooser();

    /**
     * Picks one of @p n legal delivery orders for the message at
     * @p la's ordering point (0 = FIFO default, the only order the
     * fabric takes when no chooser is installed). Out-of-range
     * returns are clamped to n - 1.
     */
    virtual unsigned choose(Addr la, unsigned n) = 0;
};

/**
 * Timing/occupancy model of one coherence fabric.
 *
 * The contract mirrors how CacheSystem uses the fabric:
 *
 *  - acquire() serializes one coherence transaction for a line at the
 *    fabric's ordering point and returns the cycles the *requester*
 *    stalls (queueing + transaction time). Implementations advance
 *    their internal occupancy so concurrent traffic serializes.
 *  - post() charges occupancy for one-way traffic without stalling
 *    the requester, and returns the operation's base processing cost
 *    (nonzero only for the broadcast class; commit()/abortAll()
 *    charge it to their reported cost).
 *  - transferLatency() is the latency of moving a line from a remote
 *    owner to the requester once the responder is known.
 *  - occupy() blocks the fabric for a bulk protocol walk (the naive
 *    §4.4 eager commit/abort, which stalls every core's misses on a
 *    bus; a directory has no global medium to block).
 *
 * Implementations bump SysStats fabric counters (busTxns,
 * dirLookups); they never touch line state.
 */
class Interconnect
{
  public:
    virtual ~Interconnect();

    /** Fabric name for reports ("snoop-bus", "directory"). */
    virtual const char* name() const = 0;

    /**
     * Serializes one coherence transaction for @p la starting at
     * @p now; returns the requester's stall cycles.
     */
    virtual Cycles acquire(Tick now, Addr la) = 0;

    /**
     * Charges one-way occupancy for @p op on @p la's ordering point
     * at @p now; returns the operation's base processing cost.
     */
    virtual Cycles post(Tick now, FabricOp op, Addr la) = 0;

    /** Remote-owner to requester transfer latency. */
    virtual Cycles transferLatency() const = 0;

    /** Occupies the fabric for @p cycles of bulk protocol walk. */
    virtual void occupy(Tick now, Cycles cycles) = 0;

    /**
     * Installs (or clears, with nullptr) the delivery-order chooser
     * consulted at this fabric's reordering decision points. Fabrics
     * with a total message order (the snoopy bus) have no such points
     * and never consult it. @p c must outlive the fabric or be
     * cleared first.
     */
    void setDeliveryChooser(DeliveryChooser* c) { chooser_ = c; }

    /** The installed DeliveryChooser (nullptr when none). */
    DeliveryChooser* deliveryChooser() const { return chooser_; }

    /** Copies every ordering point's next-free tick into @p out (a
     *  checkpoint, CacheSystem::snapshot()). */
    virtual void saveOccupancy(std::pmr::vector<Tick>& out) const = 0;

    /** Sets the next-free ticks from what saveOccupancy() recorded
     *  on this fabric. */
    virtual void restoreOccupancy(const std::pmr::vector<Tick>& in) = 0;

  protected:
    /** Resolves one delivery decision: FIFO without a chooser. */
    unsigned
    chooseDelivery(Addr la, unsigned n)
    {
        if (chooser_ == nullptr || n < 2)
            return 0;
        const unsigned pick = chooser_->choose(la, n);
        return pick < n ? pick : n - 1;
    }

  private:
    DeliveryChooser* chooser_ = nullptr;
};

/**
 * Builds the interconnect selected by @p cfg.fabric. @p stats must
 * outlive the returned object (CacheSystem owns both).
 */
std::unique_ptr<Interconnect> makeInterconnect(const MachineConfig& cfg,
                                               SysStats& stats);

} // namespace hmtx::sim

#endif // HMTX_SIM_INTERCONNECT_HH
