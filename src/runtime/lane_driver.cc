#include "runtime/lane_driver.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace hmtx::runtime
{

LaneDriver::LaneDriver(const sim::MachineConfig& cfg, Limits lim)
    : sys_(eq_, cfg), lim_(lim), lanes_(cfg.numCores, 0)
{
}

std::uint64_t
LaneDriver::now() const
{
    return *std::max_element(lanes_.begin(), lanes_.end());
}

std::uint64_t
LaneDriver::waitUntil(CoreId core, std::uint64_t when)
{
    if (lanes_[core] >= when)
        return 0;
    const std::uint64_t idle = when - lanes_[core];
    lanes_[core] = when;
    return idle;
}

void
LaneDriver::join()
{
    const std::uint64_t m = now();
    eq_.tryBypass(m);
    std::fill(lanes_.begin(), lanes_.end(), m);
}

void
LaneDriver::advanceAll(std::uint64_t cycles)
{
    for (std::uint64_t& t : lanes_)
        t += cycles;
}

Vid
LaneDriver::openBatch(unsigned width)
{
    if (nextVid_ + width - 1 > sys_.config().maxVid()) {
        join();
        advanceAll(sys_.vidReset());
        ++stats_.windowResets;
        nextVid_ = 1;
    }
    return nextVid_;
}

void
LaneDriver::stuck(unsigned flushes) const
{
    std::fprintf(stderr,
                 "FATAL: lane driver: batch stuck after %u flushes "
                 "(mode=%s)\n",
                 flushes, txModeName(sys_.config().txMode));
    std::abort();
}

} // namespace hmtx::runtime
