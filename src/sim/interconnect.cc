#include "sim/interconnect.hh"

#include <algorithm>
#include <vector>

namespace hmtx::sim
{

Interconnect::~Interconnect() = default;
DeliveryChooser::~DeliveryChooser() = default;

namespace
{

/** True for the all-cache broadcast notifications. */
bool
isBroadcast(FabricOp op)
{
    return op == FabricOp::GroupCommit || op == FabricOp::GroupAbort ||
        op == FabricOp::VidReset;
}

/**
 * The paper's evaluated fabric: one snoopy bus every coherence
 * transaction crosses. A broadcast occupies the bus for longer as the
 * machine grows — every cache must snoop and the responses must be
 * collected — so occupancy scales with the core count, the very
 * reason §8 moves to a directory.
 */
class SnoopBus final : public Interconnect
{
  public:
    SnoopBus(const MachineConfig& cfg, SysStats& stats)
        : cfg_(cfg), stats_(stats)
    {}

    const char* name() const override { return "snoop-bus"; }

    Cycles
    acquire(Tick now, Addr) override
    {
        Tick start = std::max(now, free_);
        free_ = start + occupancy();
        ++stats_.busTxns;
        return (start - now) + cfg_.busCycles;
    }

    Cycles
    post(Tick now, FabricOp op, Addr) override
    {
        if (op == FabricOp::StoreAggregate)
            return 0; // collected on the already-held bus
        free_ = std::max(free_, now) + occupancy();
        ++stats_.busTxns;
        return isBroadcast(op) ? cfg_.busCycles : 0;
    }

    Cycles transferLatency() const override { return cfg_.l2Latency; }

    void
    occupy(Tick now, Cycles cycles) override
    {
        // The naive §4.4 walk holds the bus, stalling every core's
        // misses for its duration.
        free_ = std::max(free_, now) + cycles;
    }

  private:
    void
    saveOccupancy(std::pmr::vector<Tick>& out) const override
    {
        out.assign(1, free_);
    }

    void
    restoreOccupancy(const std::pmr::vector<Tick>& in) override
    {
        free_ = in.front();
    }

    /** Bus occupancy per snoop transaction (grows with core count). */
    Cycles
    occupancy() const
    {
        unsigned scale = std::max(1u, cfg_.numCores / 4);
        return cfg_.busCycles * scale;
    }

    const MachineConfig& cfg_;
    SysStats& stats_;
    Tick free_ = 0;
};

/**
 * §8 scaling fabric: address-interleaved directory banks with
 * point-to-point hops. Only transactions to the same bank serialize;
 * independent lines proceed concurrently, so the fabric keeps scaling
 * where the bus saturates.
 */
class DirectoryFabric final : public Interconnect
{
  public:
    DirectoryFabric(const MachineConfig& cfg, SysStats& stats)
        : cfg_(cfg), stats_(stats),
          bankFree_(cfg.dirBanks == 0 ? 1 : cfg.dirBanks, 0)
    {}

    const char* name() const override { return "directory"; }

    Cycles
    acquire(Tick now, Addr la) override
    {
        Tick& bank = bankOf(la);
        ++stats_.dirLookups;
        ++stats_.busTxns;
        // Delivery decision point (DESIGN.md §14): a request reaching
        // a busy bank may queue behind the in-flight work (FIFO, the
        // default) or overtake it on another virtual channel — the
        // bank then services it in the gap and its pending work slips
        // later. Point-to-point networks guarantee neither order;
        // both must be architecturally equivalent.
        if (now < bank && chooseDelivery(la, 2) == 1) {
            bank += cfg_.busCycles;
            return cfg_.dirLookup + cfg_.dirHop;
        }
        Tick start = std::max(now, bank);
        bank = start + cfg_.busCycles;
        return (start - now) + cfg_.dirLookup + cfg_.dirHop;
    }

    Cycles
    post(Tick now, FabricOp op, Addr la) override
    {
        if (op == FabricOp::StoreAggregate)
            return 0; // sharer list lives at the acquired bank
        Tick& bank = bankOf(la);
        ++stats_.dirLookups;
        ++stats_.busTxns;
        // One-way traffic admits the same overtake freedom as
        // acquire(), but the requester never stalls for it, so both
        // orders leave identical bank occupancy — no decision point.
        bank = std::max(bank, now) + cfg_.busCycles;
        return isBroadcast(op) ? cfg_.busCycles : 0;
    }

    Cycles
    transferLatency() const override
    {
        // Three-hop miss: requester -> directory -> owner ->
        // requester (the lookup itself is charged by acquire()).
        return 2 * cfg_.dirHop;
    }

    void
    occupy(Tick, Cycles) override
    {
        // No global medium to block: the eager walk proceeds in each
        // cache's controller without stalling fabric traffic.
    }

  private:
    void
    saveOccupancy(std::pmr::vector<Tick>& out) const override
    {
        out.assign(bankFree_.begin(), bankFree_.end());
    }

    void
    restoreOccupancy(const std::pmr::vector<Tick>& in) override
    {
        bankFree_.assign(in.begin(), in.end());
    }

    Tick&
    bankOf(Addr la)
    {
        return bankFree_[(la >> kLineShift) % bankFree_.size()];
    }

    const MachineConfig& cfg_;
    SysStats& stats_;
    /** Per-bank next-free ticks. */
    std::vector<Tick> bankFree_;
};

} // namespace

std::unique_ptr<Interconnect>
makeInterconnect(const MachineConfig& cfg, SysStats& stats)
{
    if (cfg.fabric == Fabric::Directory)
        return std::make_unique<DirectoryFabric>(cfg, stats);
    return std::make_unique<SnoopBus>(cfg, stats);
}

} // namespace hmtx::sim
