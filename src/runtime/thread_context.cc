#include "runtime/thread_context.hh"

#include "runtime/machine.hh"

namespace hmtx::runtime
{

ThreadContext::ThreadContext(Machine& m, CoreId core)
    : m_(m), core_(core),
      sla_(m.config().slaCapacity),
      rng_(0xC0FFEE + core)
{}

bool
ThreadContext::abortedSinceBegin() const
{
    // The best-effort fallback holder runs non-speculatively under the
    // global lock: aborts flush everyone else's state, never its own,
    // so it does not unwind (the lock would otherwise never release).
    return vid_ != kNonSpecVid &&
        m_.sys().abortGen() != abortGenSeen_ &&
        !m_.sys().txPolicy().serializes(vid_);
}

MemOp
ThreadContext::abortedOp()
{
    // Resume next cycle and throw: the thread unwinds to its recovery
    // handler without touching the memory system further.
    return MemOp{m_.eq(), m_.now() + 1, 0, true, vid_};
}

void
ThreadContext::noteAddr(Addr a)
{
    recent_[recentCount_++ % recent_.size()] = a;
}

void
ThreadContext::beginMtx(Vid vid)
{
    ++insts_;
    vid_ = vid;
    abortGenSeen_ = m_.sys().abortGen();
}

MemOp
ThreadContext::commitMtx(Vid vid)
{
    ++insts_;
    if (abortedSinceBegin())
        return abortedOp();
    Cycles c = m_.sys().commit(vid);
    vid_ = kNonSpecVid;
    return MemOp{m_.eq(), m_.now() + 1 + c, 0, false, vid};
}

void
ThreadContext::abortMtx()
{
    ++insts_;
    m_.sys().abortAll();
    vid_ = kNonSpecVid;
}

MemOp
ThreadContext::load(Addr a, unsigned size)
{
    ++insts_;
    if (abortedSinceBegin())
        return abortedOp();
    sim::AccessResult r = m_.sys().load(core_, a, size, vid_);
    noteAddr(a);
    if (r.needSla && !sla_.full())
        sla_.push({a, vid_, r.value, size});
    return MemOp{m_.eq(), m_.now() + 1 + r.latency, r.value, r.aborted,
                 vid_};
}

MemOp
ThreadContext::store(Addr a, std::uint64_t v, unsigned size)
{
    ++insts_;
    if (abortedSinceBegin())
        return abortedOp();
    sim::AccessResult r = m_.sys().store(core_, a, v, size, vid_);
    noteAddr(a);
    return MemOp{m_.eq(), m_.now() + 1 + r.latency, v, r.aborted, vid_};
}

MemOp
ThreadContext::compute(Cycles c)
{
    insts_ += c; // roughly one instruction per cycle of compute
    if (abortedSinceBegin())
        return abortedOp();
    return MemOp{m_.eq(), m_.now() + (c == 0 ? 1 : c), 0, false, vid_};
}

MemOp
ThreadContext::branch(Addr pc, bool taken)
{
    ++insts_;
    if (abortedSinceBegin())
        return abortedOp();
    bool correct = bp_.predict(pc, taken);
    Cycles cost = 1;
    if (!correct) {
        cost += m_.config().mispredictPenalty;
        // The wrong path executed a few loads before the redirect;
        // they touch the caches but, with SLAs, never mark lines
        // (§5.1). The addresses come from the thread's recent working
        // set, as wrong-path code typically touches nearby data.
        unsigned n = std::min<unsigned>(m_.config().wrongPathLoads,
                                        recentCount_);
        for (unsigned i = 0; i < n; ++i) {
            Addr base = recent_[rng_.range(
                std::min<std::uint64_t>(recentCount_,
                                        recent_.size()))];
            std::int64_t off =
                (static_cast<std::int64_t>(rng_.range(3)) - 1) *
                static_cast<std::int64_t>(kLineBytes);
            Addr wp = base + static_cast<Addr>(off);
            sim::AccessResult r =
                m_.sys().load(core_, lineAddr(wp), 8, vid_, true);
            if (r.aborted && !m_.sys().txPolicy().serializes(vid_))
                return MemOp{m_.eq(), m_.now() + cost, 0, true, vid_};
        }
    }
    // Branch resolution retires the loads it guarded; their buffered
    // acknowledgments go out (the cache model applied the markings at
    // load time; wrong-path loads never enter the buffer).
    sla_.drain();
    return MemOp{m_.eq(), m_.now() + cost, taken ? 1u : 0u, false,
                 vid_};
}

} // namespace hmtx::runtime
