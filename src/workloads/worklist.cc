#include "workloads/worklist.hh"

#include "sim/rng.hh"

namespace hmtx::workloads
{

void
ChasedListWorkload::initWorkList(
    runtime::Machine& m, const std::vector<std::uint64_t>& payloads)
{
    payloads_ = payloads;
    slots_.init(m);
    sim::Rng rng(0x11aa22bb);

    std::vector<Addr> nodes;
    nodes.reserve(payloads.size());
    for (std::size_t i = 0; i < payloads.size(); ++i)
        nodes.push_back(m.heap().allocLines(1));
    for (std::size_t i = payloads.size(); i > 1; --i)
        std::swap(nodes[i - 1], nodes[rng.range(i)]);

    order_ = nodes;
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        Addr next = i + 1 < nodes.size() ? nodes[i + 1] : 0;
        m.sys().memory().write(nodes[i], next, 8);
        m.sys().memory().write(nodes[i] + 8, payloads[i], 8);
    }
}

sim::Task<void>
ChasedListWorkload::stage1(runtime::MemIf& mem, std::uint64_t iter)
{
    // order_ mirrors the link order (initWorkList chains nodes[i] ->
    // nodes[i+1]), so indexing it is value-identical to chasing a
    // loop-carried cursor. Keeping the stage body free of host state
    // makes it safe under DOALL's concurrent stage-1 invocations and
    // abort-recovery restarts at arbitrary iterations alike.
    Addr node = order_[iter];
    std::uint64_t payload = co_await mem.load(node + 8);
    co_await mem.store(slots_.slot(iter), payload);
    Addr next = co_await mem.load(node);
    co_await mem.branch(0x10, next != 0);
}

sim::Task<std::uint64_t>
ChasedListWorkload::fetchWork(runtime::MemIf& mem, std::uint64_t iter)
{
    co_return co_await mem.load(slots_.slot(iter));
}

} // namespace hmtx::workloads
