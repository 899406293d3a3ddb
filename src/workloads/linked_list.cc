#include "workloads/linked_list.hh"

#include "sim/rng.hh"

namespace hmtx::workloads
{

LinkedListWorkload::LinkedListWorkload() : p_() {}

void
LinkedListWorkload::setup(runtime::Machine& m)
{
    m_ = &m;
    slots_.init(m);
    sim::Rng rng(p_.seed);

    // Allocate the nodes, then link them in a shuffled order so the
    // traversal really chases pointers across the address space.
    std::vector<Addr> nodes;
    nodes.reserve(p_.nodes);
    for (std::uint64_t i = 0; i < p_.nodes; ++i)
        nodes.push_back(m.heap().allocLines(1));
    for (std::uint64_t i = p_.nodes; i > 1; --i)
        std::swap(nodes[i - 1], nodes[rng.range(i)]);

    order_ = nodes;
    head_ = nodes.front();
    for (std::uint64_t i = 0; i < p_.nodes; ++i) {
        Addr next = (i + 1 < p_.nodes) ? nodes[i + 1] : 0;
        m.sys().memory().write(nodes[i] + kNextOff, next, 8);
        m.sys().memory().write(nodes[i] + kValueOff,
                               mix64(p_.seed ^ i), 8);
        m.sys().memory().write(nodes[i] + kResultOff, 0, 8);
    }
}

sim::Task<void>
LinkedListWorkload::stage1(runtime::MemIf& mem, std::uint64_t iter)
{
    // order_ mirrors the link order (setup chains nodes[i] ->
    // nodes[i+1]), so indexing it is value-identical to chasing a
    // loop-carried cursor — and leaves the stage body free of host
    // state, which keeps abort recovery trivially consistent.
    Addr node = order_[iter];
    // Publish the node to stage 2 through versioned memory (Fig. 3b:
    // "producedNode = node").
    co_await mem.store(slots_.slot(iter), node);
    Addr next = co_await mem.load(node + kNextOff);
    if (p_.stage1Rounds > 0)
        co_await mem.compute(p_.stage1Rounds);
    co_await mem.branch(0x100, next != 0); // while (node) back-edge
}

sim::Task<void>
LinkedListWorkload::stage2(runtime::MemIf& mem, std::uint64_t iter)
{
    // Fig. 3c: "node = producedNode" — sees stage 1's uncommitted
    // store of this same transaction.
    Addr node = co_await mem.load(slots_.slot(iter));
    std::uint64_t h = co_await mem.load(node + kValueOff);
    for (unsigned r = 0; r < p_.workRounds; ++r) {
        h = mix64(h + r);
        co_await mem.compute(3);
        if (r % 4 == 3)
            co_await mem.branch(0x200, (h & 1) != 0);
    }
    co_await mem.store(node + kResultOff, h);
}

std::uint64_t
LinkedListWorkload::checksum(runtime::Machine& m)
{
    std::uint64_t sum = 0;
    for (Addr n : order_)
        sum = mix64(sum ^ m.sys().memory().read(n + kResultOff, 8));
    return sum;
}

} // namespace hmtx::workloads
