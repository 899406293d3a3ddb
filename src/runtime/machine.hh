/**
 * @file
 * Top-level simulated machine: event queue, memory system, cores and
 * thread contexts wired per Table 2.
 */

#ifndef HMTX_RUNTIME_MACHINE_HH
#define HMTX_RUNTIME_MACHINE_HH

#include <memory>
#include <vector>

#include "runtime/alloc.hh"
#include "sim/branch_predictor.hh"
#include "sim/cache_system.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/task.hh"

namespace hmtx::runtime
{

class ThreadContext;

/**
 * Owns every simulation component for one run and drives the event
 * loop. One ThreadContext exists per core; executors spawn root
 * coroutines bound to those contexts and then run() the machine until
 * everything completes.
 */
class Machine
{
  public:
    explicit Machine(const sim::MachineConfig& cfg);
    ~Machine();

    Machine(const Machine&) = delete;
    Machine& operator=(const Machine&) = delete;

    sim::EventQueue& eq() { return eq_; }
    sim::CacheSystem& sys() { return sys_; }
    SimAllocator& heap() { return heap_; }
    const sim::MachineConfig& config() const { return cfg_; }

    /** The execution context of core @p c. */
    ThreadContext& ctx(CoreId c) { return *ctxs_[c]; }

    /** Current simulated time. */
    Tick now() const { return eq_.curTick(); }

    /**
     * Registers and starts a root task. The machine keeps it alive for
     * the rest of the run.
     */
    void spawn(sim::Task<void> t);

    /**
     * Runs the event loop until it drains. Throws if any root task
     * ended with an exception or is still blocked (deadlock).
     */
    void run();

  private:
    sim::MachineConfig cfg_;
    sim::EventQueue eq_;
    sim::CacheSystem sys_;
    SimAllocator heap_;
    std::vector<std::unique_ptr<ThreadContext>> ctxs_;
    std::vector<sim::Task<void>> roots_;
};

} // namespace hmtx::runtime

#endif // HMTX_RUNTIME_MACHINE_HH
