/**
 * @file
 * Direct-drive runtime: batches of straight-line transactions run
 * against a CacheSystem without coroutines or scheduled events. The KV
 * serving engine and the commit-mode crossover bench run on it.
 *
 * Cost model: an access charges its own core's lane; commits, VID
 * resets, global flushes and serialized fallback accesses are
 * all-lane barriers (every lane waits for the slowest, then all
 * advance together). The makespan is the slowest lane's clock.
 *
 * Event-clock coupling: the interconnect charges queueing against the
 * event queue's clock, so the driver jumps that clock
 * (EventQueue::tryBypass) to the issuing lane before every access and
 * to the slowest lane at every barrier. Without it the clock stays at
 * 0 and every fabric acquire queues behind the whole run's occupancy
 * (DESIGN.md §15).
 */

#ifndef HMTX_RUNTIME_LANE_DRIVER_HH
#define HMTX_RUNTIME_LANE_DRIVER_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/cache_system.hh"
#include "sim/event_queue.hh"

namespace hmtx::runtime
{

/** One straight-line transaction instruction. */
struct LaneOp
{
    bool isStore;
    Addr addr;
    std::uint64_t value;
};

/**
 * One transaction in flight on a core. The caller sets body, len, core
 * and nonSpec; the driver owns the rest. A caller may derive from it to
 * carry per-request state to its hooks.
 */
struct LaneFlight
{
    const LaneOp* body = nullptr;
    unsigned len = 0;
    CoreId core = 0;
    /** Runs non-speculatively at the head of the VID order (a
     *  limited-set footprint that can never fit the K bound). */
    bool nonSpec = false;
    Vid vid = 0;
    unsigned progress = 0;
    bool committed = false;
    /** Holds the best-effort fallback lock (accesses serialized). */
    bool underLock = false;
};

/** Counters over every batch a driver has run. */
struct LaneDriverStats
{
    std::uint64_t flushes = 0;
    /** Attempts a flush cut short and sent back to the start. */
    std::uint64_t rewinds = 0;
    std::uint64_t lockRestarts = 0;
    /** Batches that switched to draining the oldest transaction. */
    std::uint64_t drains = 0;
    std::uint64_t windowResets = 0;
};

class LaneDriver
{
  public:
    struct Limits
    {
        /** Global flushes per batch before the process aborts. */
        unsigned maxAttempts = 64;
        /** Flushes per batch after which non-btx modes drain. */
        unsigned drainAfter = 8;
    };

    LaneDriver(const sim::MachineConfig& cfg, Limits lim);

    sim::CacheSystem& sys() { return sys_; }
    const LaneDriverStats& stats() const { return stats_; }

    /** The slowest lane's clock: the makespan so far. */
    std::uint64_t now() const;

    /** Holds @p core idle until @p when; returns the idle gap. */
    std::uint64_t waitUntil(CoreId core, std::uint64_t when);

    /**
     * First VID of the next batch of up to @p width transactions.
     * Everything is committed between batches, so when the batch might
     * not fit the VID window this rolls it over (§4.6) behind a
     * barrier.
     */
    Vid openBatch(unsigned width);

    /**
     * Runs one batch to full commitment. The flights take consecutive
     * VIDs from openBatch() in order and interleave one access per
     * round, round-robin.
     *
     * - A global flush rewinds every speculative flight except the
     *   fallback-lock holder and non-spec flights, whose progress is
     *   committed state; @p onFlush(LaneFlight&) runs for each flight
     *   it sends back to the first instruction.
     * - When the best-effort lock first engages on a flight past its
     *   first instruction, the whole body restarts under the lock: the
     *   speculative prefix is flushable state the holder may not own.
     * - After Limits::drainAfter flushes, non-btx modes run only the
     *   head of the VID order, which cannot lose a conflict.
     * - A finished flight commits once it heads the VID order, then
     *   @p onCommit(LaneFlight&) runs.
     * - A batch that absorbs Limits::maxAttempts flushes aborts the
     *   process.
     */
    template <class OnCommit, class OnFlush>
    void runBatch(std::span<LaneFlight* const> batch, OnCommit&& onCommit,
                  OnFlush&& onFlush);

  private:
    /** Every lane waits for the slowest; the event clock jumps there. */
    void join();
    void advanceAll(std::uint64_t cycles);
    [[noreturn]] void stuck(unsigned flushes) const;

    sim::EventQueue eq_;
    sim::CacheSystem sys_;
    const Limits lim_;
    std::vector<std::uint64_t> lanes_;
    Vid nextVid_ = 1;
    LaneDriverStats stats_;
};

template <class OnCommit, class OnFlush>
void
LaneDriver::runBatch(std::span<LaneFlight* const> batch, OnCommit&& onCommit,
                     OnFlush&& onFlush)
{
    for (LaneFlight* f : batch) {
        f->vid = nextVid_++;
        f->progress = 0;
        f->committed = f->underLock = false;
    }
    unsigned flushes = 0;
    bool drain = false;
    for (;;) {
        bool all = true;
        for (const LaneFlight* f : batch)
            all = all && f->committed;
        if (all)
            return;
        if (flushes >= lim_.maxAttempts)
            stuck(flushes);
        if (!drain && flushes >= lim_.drainAfter &&
            sys_.config().txMode != TxMode::BestEffort) {
            drain = true;
            ++stats_.drains;
        }

        for (LaneFlight* f : batch) {
            if (f->committed || f->progress >= f->len)
                continue;
            // Drained flights run alone; non-spec ones land their
            // immediately visible writes in commit order.
            if ((drain || f->nonSpec) && f->vid != sys_.lcVid() + 1)
                continue;
            const LaneOp& op = f->body[f->progress];
            const Vid vid = f->nonSpec ? kNonSpecVid : f->vid;
            eq_.tryBypass(lanes_[f->core]);
            const std::uint64_t fbBefore =
                sys_.txPolicy().stats().fallbackAccesses;
            const std::uint64_t abortsBefore = sys_.stats().aborts;
            const sim::AccessResult r = op.isStore
                ? sys_.store(f->core, op.addr, op.value, 8, vid)
                : sys_.load(f->core, op.addr, 8, vid);
            const bool serialized =
                sys_.txPolicy().stats().fallbackAccesses > fbBefore;
            if (serialized) {
                join();
                advanceAll(r.latency);
            } else {
                lanes_[f->core] += r.latency;
            }
            // The first serialized access engages the fallback lock. A
            // speculative prefix written before it is flushable state
            // (the holder may own none: another VID's abort would
            // discard the prefix while the serialized suffix commits),
            // so the whole body re-runs under the lock. Store values
            // are fixed per body, so the re-run is idempotent.
            bool restarted = false;
            if (serialized && !f->underLock) {
                f->underLock = true;
                restarted = f->progress > 0;
                stats_.lockRestarts += restarted;
                f->progress = 0;
            }
            const bool flushed = sys_.stats().aborts > abortsBefore;
            if (flushed) {
                ++flushes;
                ++stats_.flushes;
                join();
                const bool held = sys_.txPolicy().fallbackHeld();
                const Vid holder = sys_.txPolicy().fallbackVid();
                for (LaneFlight* g : batch) {
                    if (g->committed || g->nonSpec ||
                        (held && g->vid == holder))
                        continue;
                    if (g->progress > 0 || g == f) {
                        g->progress = 0;
                        ++stats_.rewinds;
                    }
                    onFlush(*g);
                }
            }
            // An access that flushed others without being aborted
            // itself (a serialized or non-spec one) has landed.
            if (!restarted && !(flushed && r.aborted))
                ++f->progress;
            if (flushed)
                break;
        }

        // The empty commit of a non-spec flight still advances the
        // window.
        for (LaneFlight* f : batch) {
            if (f->committed || f->progress < f->len ||
                f->vid != sys_.lcVid() + 1)
                continue;
            join();
            advanceAll(sys_.commit(f->vid));
            f->committed = true;
            onCommit(*f);
        }
    }
}

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_LANE_DRIVER_HH
