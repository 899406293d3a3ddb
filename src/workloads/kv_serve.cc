/**
 * @file
 * KV/OLTP serving engine implementation. See kv_serve.hh for the
 * model; the execution loop mirrors the crossover bench's lane-clock
 * pipeline (bench/ext_mode_crossover.cc) with three additions: open-
 * loop arrivals, a drain-oldest recovery mode that guarantees forward
 * progress without the best-effort fallback lock, and a
 * non-speculative path for transactions whose footprint can never fit
 * the limited-set bound.
 */

#include "workloads/kv_serve.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "runtime/alloc.hh"
#include "sim/cache_system.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace hmtx::workloads
{
namespace
{

/** SplitMix64 finalizer: the table's bucket/slot hash. */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

enum class ReqKind : std::uint8_t
{
    PointGet,
    Rmw,
    Transfer,
    Scan,
};

/** One staged request (ring entry; trivially destructible POD). */
struct Request
{
    std::uint64_t key = 0;
    std::uint64_t key2 = 0;
    /** Absolute arrival cycle on the owning core's open loop. */
    std::uint64_t arrival = 0;
    std::uint32_t rid = 0;
    ReqKind kind = ReqKind::PointGet;
};

/** One straight-line transaction instruction. */
struct TxInstr
{
    bool isStore;
    Addr addr;
    std::uint64_t value;
};

/** 8-byte words per bucket line (the oracle's granularity). */
constexpr std::size_t kWordsPerLine = kLineBytes / 8;

/** Longest body: a scan reads two words of each scanned bucket. */
constexpr unsigned kMaxBody = 2 * 12 + 4;

/** One in-flight transaction on a core (arena-carved POD). */
struct Flight
{
    Request req;
    TxInstr body[kMaxBody];
    unsigned len = 0;
    unsigned progress = 0;
    unsigned footprintLines = 0;
    Vid vid = 0;
    bool active = false;
    bool committed = false;
    /** Runs non-speculatively (limited-set footprint overflow). */
    bool nonSpec = false;
    /** Holds the best-effort fallback lock (accesses serialized). */
    bool underLock = false;
};

/** Per-core ring + bursty open-loop generator state. */
struct CoreLane
{
    Request* ring = nullptr;
    unsigned ringHead = 0;
    unsigned ringCount = 0;
    Flight* fl = nullptr;
    /** Requests this core still has to generate. */
    std::uint64_t toGenerate = 0;
    /** Arrival clock of the generator (cycles). */
    std::uint64_t genClock = 0;
    /** Requests left in the current heavy-tailed ON period. */
    std::uint64_t onLeft = 0;
};

/** Per-core lane clocks with global synchronization points. */
class LaneClock
{
  public:
    explicit LaneClock(unsigned cores) : t_(cores, 0) {}

    std::uint64_t
    maxT() const
    {
        std::uint64_t m = 0;
        for (std::uint64_t v : t_)
            m = std::max(m, v);
        return m;
    }

    std::uint64_t at(unsigned core) const { return t_[core]; }

    void local(unsigned core, std::uint64_t cyc) { t_[core] += cyc; }

    /** Waits the core out until @p when (idle gap returned). */
    std::uint64_t
    waitUntil(unsigned core, std::uint64_t when)
    {
        if (t_[core] >= when)
            return 0;
        const std::uint64_t idle = when - t_[core];
        t_[core] = when;
        return idle;
    }

    /** Global event (commit, abort, serialized access): every lane
     *  waits for the slowest, then all advance together. */
    void
    global(std::uint64_t cyc)
    {
        const std::uint64_t m = maxT() + cyc;
        for (std::uint64_t& v : t_)
            v = m;
    }

  private:
    std::vector<std::uint64_t> t_;
};

class Engine
{
  public:
    Engine(const sim::MachineConfig& cfg, const KvServeParams& p)
        : cfg_(cfg), p_(p), sys_(eq_, cfg), lanes_(cfg.numCores),
          zipf_(p.keys, p.zipfTheta),
          onLen_(2.0, 512.0, p.burstAlpha <= 1e-3 ? 1.5 : p.burstAlpha)
    {
        if (p_.tableBuckets == 0 || p_.keys == 0 || p_.ringCap == 0) {
            std::fprintf(stderr, "FATAL: kv_serve: empty table, key "
                                 "space, or ring\n");
            std::abort();
        }
        runtime::SimAllocator salloc;
        tableBase_ = salloc.allocLines(p_.tableBuckets);
        if (p_.oracleCheck) {
            oracle_.resize(p_.tableBuckets * kWordsPerLine);
            oracleWritten_.resize(oracle_.size());
        }
    }

    KvServeResult run();

  private:
    Addr headerAddr(std::uint64_t bucket) const
    {
        return tableBase_ + bucket * kLineBytes;
    }

    std::uint64_t bucketOf(std::uint64_t key) const
    {
        return mix64(key) % p_.tableBuckets;
    }

    /** Slot word of @p key inside its bucket line: words 1..7 (word 0
     *  is the bucket header). Collisions are absorbed by the oracle,
     *  which is keyed by slot address, not by key. */
    Addr slotAddr(std::uint64_t key) const
    {
        const std::uint64_t slot = 1 + mix64(key * 0x9e3779b97f4a7c15ull + 5) % 7;
        return headerAddr(bucketOf(key)) + slot * 8;
    }

    /** Deterministic store payload: independent of loaded values, so
     *  replays after aborts are idempotent and a host-side oracle can
     *  predict the final image from the commit order alone. */
    static std::uint64_t valueOf(std::uint32_t rid, unsigned i)
    {
        return mix64((std::uint64_t{rid} << 8) | i);
    }

    void buildBody(Flight& f) const;
    void refillRing(unsigned c);
    bool activate(unsigned c, Vid vid);
    void runBatch(const std::vector<unsigned>& active);
    void commitFlight(Flight& f);

    const sim::MachineConfig cfg_;
    const KvServeParams p_;
    sim::EventQueue eq_;
    sim::CacheSystem sys_;
    LaneClock lanes_;
    sim::ZipfSampler zipf_;
    sim::BoundedParetoSampler onLen_;
    Addr tableBase_ = 0;
    std::vector<runtime::ScratchArena> arenas_;
    std::vector<CoreLane> cores_;
    std::vector<sim::Rng> rngs_;
    std::uint32_t nextRid_ = 0;
    KvServeResult res_;
    /** Oracle image: the last committed store to each table word,
     *  indexed by word; oracleWritten_ marks the words ever stored. */
    std::vector<std::uint64_t> oracle_;
    std::vector<std::uint8_t> oracleWritten_;
};

void
Engine::buildBody(Flight& f) const
{
    const Request& r = f.req;
    unsigned n = 0;
    auto load = [&](Addr a) { f.body[n++] = {false, a, 0}; };
    auto store = [&](Addr a, std::uint64_t v) {
        f.body[n++] = {true, a, v};
    };
    switch (r.kind) {
    case ReqKind::PointGet:
        load(headerAddr(bucketOf(r.key)));
        load(slotAddr(r.key));
        break;
    case ReqKind::Rmw:
        load(headerAddr(bucketOf(r.key)));
        load(slotAddr(r.key));
        store(slotAddr(r.key), valueOf(r.rid, 0));
        break;
    case ReqKind::Transfer:
        load(slotAddr(r.key));
        load(slotAddr(r.key2));
        store(slotAddr(r.key), valueOf(r.rid, 0));
        store(slotAddr(r.key2), valueOf(r.rid, 1));
        break;
    case ReqKind::Scan: {
        // Strided range update: read the header and rewrite slot 1 of
        // scanBuckets buckets spaced scanStride apart. The stride
        // concentrates the speculative set onto few cache sets — the
        // capacity pressure that separates bounded from unbounded
        // machines (kv_serve.hh).
        const std::uint64_t b0 = bucketOf(r.key);
        const unsigned span =
            std::min<unsigned>(p_.scanBuckets, 12);
        const std::uint64_t stride =
            p_.scanStride == 0 ? 1 : p_.scanStride;
        for (unsigned j = 0; j < span; ++j) {
            const std::uint64_t b =
                (b0 + j * stride) % p_.tableBuckets;
            load(headerAddr(b));
            store(headerAddr(b) + 8, valueOf(r.rid, j));
        }
        break;
    }
    }
    f.len = n;
    // Distinct-line footprint: decides the limited-set non-spec path.
    Addr lines[kMaxBody];
    unsigned nl = 0;
    for (unsigned i = 0; i < n; ++i) {
        const Addr la = f.body[i].addr & ~static_cast<Addr>(kLineBytes - 1);
        bool seen = false;
        for (unsigned j = 0; j < nl; ++j)
            seen = seen || lines[j] == la;
        if (!seen)
            lines[nl++] = la;
    }
    f.footprintLines = nl;
}

void
Engine::refillRing(unsigned c)
{
    CoreLane& cl = cores_[c];
    sim::Rng& rng = rngs_[c];
    const unsigned n = static_cast<unsigned>(
        std::min<std::uint64_t>(p_.ringCap, cl.toGenerate));
    if (n == 0)
        return;
    for (unsigned i = 0; i < n; ++i) {
        // ON/OFF arrival process: requests of an ON period arrive with
        // their gaps compressed by the duty factor; the matching OFF
        // gap is inserted up front, so the long-run offered load is
        // arrivalMeanGap per request regardless of duty.
        if (cl.onLeft == 0) {
            cl.onLeft = static_cast<std::uint64_t>(
                std::ceil(onLen_(rng)));
            if (p_.burstDuty < 1.0)
                cl.genClock += static_cast<std::uint64_t>(
                    static_cast<double>(cl.onLeft) *
                    static_cast<double>(p_.arrivalMeanGap) *
                    (1.0 - p_.burstDuty));
        }
        --cl.onLeft;
        const double jitter = 0.5 + rng.uniform();
        cl.genClock += static_cast<std::uint64_t>(
            static_cast<double>(p_.arrivalMeanGap) * p_.burstDuty *
            jitter);

        Request& q = cl.ring[i];
        q.arrival = cl.genClock;
        q.rid = nextRid_++;
        q.key = zipf_(rng);
        const double u = rng.uniform();
        if (u < p_.scanShare) {
            q.kind = ReqKind::Scan;
        } else if (u < p_.scanShare + p_.transferShare) {
            q.kind = ReqKind::Transfer;
            q.key2 = zipf_(rng);
        } else {
            q.kind = rng.chance(p_.writeRatio) ? ReqKind::Rmw
                                               : ReqKind::PointGet;
        }
    }
    cl.ringHead = 0;
    cl.ringCount = n;
    cl.toGenerate -= n;
    ++res_.serve.batches;
}

/** Dequeues the next request of core @p c into its flight. Returns
 *  false when the core is out of work. */
bool
Engine::activate(unsigned c, Vid vid)
{
    CoreLane& cl = cores_[c];
    if (cl.ringCount == 0)
        refillRing(c);
    if (cl.ringCount == 0)
        return false;
    Flight& f = *cl.fl;
    f.req = cl.ring[cl.ringHead++];
    --cl.ringCount;
    f.progress = 0;
    f.vid = vid;
    f.active = true;
    f.committed = false;
    f.underLock = false;
    buildBody(f);
    f.nonSpec = cfg_.txMode == TxMode::LimitedSet &&
        f.footprintLines > cfg_.limitedSetK;
    ++res_.serve.requests;
    ++res_.serve.issued;
    if (f.nonSpec)
        ++res_.serve.nonSpecFallbacks;
    // Open loop: a request cannot start before it arrives. The queue
    // delay (arrival long before the lane got free) is what shows up
    // in the tail percentiles under bursts.
    res_.serve.idleCycles += lanes_.waitUntil(c, f.req.arrival);
    return true;
}

void
Engine::commitFlight(Flight& f)
{
    eq_.tryBypass(lanes_.maxT());
    lanes_.global(sys_.commit(f.vid));
    f.committed = true;
    ++res_.serve.committed;
    const std::uint64_t lat = lanes_.maxT() - f.req.arrival;
    res_.serve.latency.record(lat);
    if (p_.recordLatencies)
        res_.recordedLatencies.push_back(lat);
    if (p_.oracleCheck) {
        for (unsigned i = 0; i < f.len; ++i) {
            if (f.body[i].isStore) {
                const std::size_t w = (f.body[i].addr - tableBase_) / 8;
                oracle_[w] = f.body[i].value;
                oracleWritten_[w] = 1;
            }
        }
    }
}

/**
 * Runs one batch (one transaction per active core, consecutive VIDs)
 * to full commitment. Round-robins the bodies; a global flush rewinds
 * every speculative transaction except the best-effort fallback-lock
 * holder and non-speculative limited-set overflows (their progress is
 * committed state). After drainAfter flushes, non-best-effort modes
 * switch to draining the oldest transaction alone, which cannot lose
 * a conflict and therefore guarantees forward progress.
 */
void
Engine::runBatch(const std::vector<unsigned>& active)
{
    std::uint64_t flushes = 0;
    bool drain = false;

    for (;;) {
        bool all = true;
        for (unsigned c : active)
            all = all && cores_[c].fl->committed;
        if (all)
            break;
        if (flushes >= p_.maxAttempts) {
            std::fprintf(stderr,
                         "FATAL: kv_serve batch stuck after %llu "
                         "flushes (mode=%s)\n",
                         static_cast<unsigned long long>(flushes),
                         txModeName(cfg_.txMode));
            std::abort();
        }
        if (!drain && flushes >= p_.drainAfter &&
            cfg_.txMode != TxMode::BestEffort) {
            drain = true;
            ++res_.serve.drains;
        }

        for (unsigned c : active) {
            Flight& f = *cores_[c].fl;
            if (f.committed || f.progress >= f.len)
                continue;
            // Drain mode and the non-spec overflow path both execute
            // only at the head of the VID order: drained transactions
            // so they run alone, non-spec ones so their immediately
            // visible writes land in commit order.
            if ((drain || f.nonSpec) && f.vid != sys_.lcVid() + 1)
                continue;
            const TxInstr& in = f.body[f.progress];
            const Vid accessVid = f.nonSpec ? kNonSpecVid : f.vid;
            // The interconnect stamps fabric contention from the
            // event-queue clock; this engine schedules no events, so
            // jump the clock to the issuing lane's time (a zero-event
            // bypass — the queue is empty). Without this, `now` never
            // moves and every bus acquire queues behind the whole
            // run's accumulated occupancy: makespan goes quadratic in
            // the request count.
            eq_.tryBypass(lanes_.at(c));
            const std::uint64_t fbBefore =
                sys_.txPolicy().stats().fallbackAccesses;
            const std::uint64_t abortsBefore = sys_.stats().aborts;
            sim::AccessResult r = in.isStore
                ? sys_.store(c, in.addr, in.value, 8, accessVid)
                : sys_.load(c, in.addr, 8, accessVid);
            const bool serialized =
                sys_.txPolicy().stats().fallbackAccesses > fbBefore;
            if (serialized)
                lanes_.global(r.latency);
            else
                lanes_.local(c, r.latency);
            // First serialized access: the fallback lock engaged. If
            // the body already made speculative progress, that prefix
            // is ordinary flushable state — the protocol requires the
            // holder to own no speculative lines (any other VID's
            // abort would silently discard the prefix while the
            // serialized suffix commits) — so re-execute the whole
            // request under the lock. Store values are precomputed
            // per request, so the re-run is idempotent.
            bool restarted = false;
            if (serialized && !f.underLock) {
                f.underLock = true;
                if (f.progress > 0) {
                    f.progress = 0;
                    restarted = true;
                    ++res_.serve.lockRestarts;
                }
            }
            if (sys_.stats().aborts > abortsBefore) {
                ++flushes;
                lanes_.global(0);
                const bool held = sys_.txPolicy().fallbackHeld();
                const Vid holder = sys_.txPolicy().fallbackVid();
                for (unsigned k : active) {
                    Flight& g = *cores_[k].fl;
                    if (g.committed || g.nonSpec ||
                        (held && g.vid == holder))
                        continue;
                    if (g.progress > 0 || &g == &f) {
                        g.progress = 0;
                        ++res_.serve.aborted;
                        ++res_.serve.issued;
                    }
                }
                if (!r.aborted && !restarted)
                    ++f.progress; // serialized/non-spec access landed
                break;
            }
            if (!restarted)
                ++f.progress;
        }

        // Commit every head-of-order transaction that finished;
        // commits broadcast, so they synchronize the lanes. The empty
        // commit of a non-spec overflow still advances the window.
        for (unsigned c : active) {
            Flight& f = *cores_[c].fl;
            if (f.committed || f.progress < f.len ||
                f.vid != sys_.lcVid() + 1)
                continue;
            commitFlight(f);
        }
    }
}

KvServeResult
Engine::run()
{
    const auto t0 = std::chrono::steady_clock::now();
    const unsigned n = cfg_.numCores;
    arenas_.reserve(n);
    cores_.resize(n);
    rngs_.reserve(n);
    for (unsigned c = 0; c < n; ++c) {
        arenas_.emplace_back(std::size_t{1} << 13);
        CoreLane& cl = cores_[c];
        cl.ring = arenas_.back().alloc<Request>(p_.ringCap);
        cl.fl = arenas_.back().alloc<Flight>();
        cl.toGenerate = p_.requests / n + (c < p_.requests % n);
        rngs_.emplace_back(p_.seed * 0x9e3779b97f4a7c15ull + c + 1);
    }
    if (p_.recordLatencies)
        res_.recordedLatencies.reserve(p_.requests);

    const Vid maxVid = cfg_.maxVid();
    Vid nextVid = 1;
    std::vector<unsigned> active;
    active.reserve(n);

    for (;;) {
        // Between batches everything is committed, so a window
        // rollover is always legal here (§4.6).
        if (nextVid + n - 1 > maxVid) {
            eq_.tryBypass(lanes_.maxT());
            lanes_.global(sys_.vidReset());
            ++res_.serve.windowResets;
            nextVid = 1;
        }
        active.clear();
        Vid vid = nextVid;
        for (unsigned c = 0; c < n; ++c)
            if (activate(c, vid)) {
                active.push_back(c);
                ++vid;
            }
        if (active.empty())
            break;
        runBatch(active);
        nextVid = vid;
    }

    res_.makespan = lanes_.maxT();
    res_.sys = sys_.stats();
    res_.tx = sys_.txPolicy().stats();
    for (const runtime::ScratchArena& a : arenas_)
        res_.scratchHighWater += a.highWater();
    sys_.checkInvariants();

    if (p_.oracleCheck) {
        sys_.flushDirtyToMemory();
        for (std::size_t w = 0; w < oracle_.size(); ++w) {
            if (!oracleWritten_[w])
                continue;
            const Addr addr = tableBase_ + w * 8;
            const std::uint64_t want = oracle_[w];
            const std::uint64_t got = sys_.memory().read(addr, 8);
            if (got != want) {
                std::fprintf(
                    stderr,
                    "kv_serve: oracle mismatch at %llx: memory %llx, "
                    "oracle %llx\n",
                    static_cast<unsigned long long>(addr),
                    static_cast<unsigned long long>(got),
                    static_cast<unsigned long long>(want));
                res_.oracleOk = false;
            }
        }
    }

    res_.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return res_;
}

} // namespace

KvServeResult
runKvServe(const sim::MachineConfig& cfg, const KvServeParams& p)
{
    Engine e(cfg, p);
    return e.run();
}

} // namespace hmtx::workloads
