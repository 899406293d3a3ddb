#include "runtime/machine.hh"

#include <stdexcept>
#include <utility>

#include "runtime/thread_context.hh"

namespace hmtx::runtime
{

Machine::Machine(const sim::MachineConfig& cfg)
    : cfg_(cfg), sys_(eq_, cfg)
{
    buildContexts();
}

Machine::~Machine() = default;

void
Machine::spawn(sim::Task<void> t)
{
    roots_.push_back(std::move(t));
    roots_.back().start();
}

void
Machine::run()
{
    eq_.run();
    // A root's exception first: the roots it leaves blocked would
    // otherwise report it as a deadlock.
    for (auto& t : roots_)
        t.rethrow();
    for (auto& t : roots_) {
        if (!t.done()) {
            throw std::logic_error(
                "Machine::run: event queue drained but a task is "
                "still blocked (runtime deadlock)");
        }
    }
}

void
Machine::reset(const sim::MachineConfig& cfg)
{
    // Check first: the queue must be empty before the memory system
    // resets (it rewinds the clock), so a config rejected only there
    // would leave the roots and events already dropped.
    if (!sys_.sameStructure(cfg))
        throw std::invalid_argument(
            "Machine::reset: the config changes the machine's "
            "structure (cores, caches, fabric); build a new machine");
    cfg.validate();
    roots_.clear();
    eq_.reset();
    sys_.reset(cfg);
    cfg_ = cfg;
    heap_ = SimAllocator();
    buildContexts();
}

void
Machine::buildContexts()
{
    ctxs_.clear();
    ctxs_.reserve(cfg_.numCores);
    for (CoreId c = 0; c < cfg_.numCores; ++c)
        ctxs_.push_back(std::make_unique<ThreadContext>(*this, c));
}

} // namespace hmtx::runtime
