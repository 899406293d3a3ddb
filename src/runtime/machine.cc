#include "runtime/machine.hh"

#include <stdexcept>
#include <utility>

#include "runtime/thread_context.hh"

namespace hmtx::runtime
{

Machine::Machine(const sim::MachineConfig& cfg)
    : cfg_(cfg), sys_(eq_, cfg)
{
    ctxs_.reserve(cfg.numCores);
    for (CoreId c = 0; c < cfg.numCores; ++c)
        ctxs_.push_back(std::make_unique<ThreadContext>(*this, c));
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
    for (auto& t : roots_) {
        t.rethrow();
        if (!t.done()) {
            throw std::logic_error(
                "Machine::run: event queue drained but a task is "
                "still blocked (runtime deadlock)");
        }
    }
}

} // namespace hmtx::runtime
