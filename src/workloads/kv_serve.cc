/**
 * @file
 * KV/OLTP serving engine implementation. See kv_serve.hh for the
 * model. This file generates requests, builds their bodies, checks
 * committed stores against the oracle and records latencies;
 * runtime::LaneDriver runs the batches.
 */

#include "workloads/kv_serve.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>

#include "runtime/alloc.hh"
#include "runtime/lane_driver.hh"
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

/** 8-byte words per bucket line (the oracle's granularity). */
constexpr std::size_t kWordsPerLine = kLineBytes / 8;

/** Longest body: a scan reads two words of each scanned bucket. */
constexpr unsigned kMaxBody = 2 * kMaxScanBuckets + 4;

/**
 * The Zipf table of (@p keys, @p theta), shared read-only by every
 * Engine that asks for the same pair (DESIGN.md §15). The most
 * recently built table is kept, so a process that runs cell after
 * cell of one (keys, theta) builds its table once; another pair
 * replaces it, and an Engine still drawing from the old one keeps it
 * alive. Draws are those of a table built for the Engine alone.
 */
std::shared_ptr<const sim::ZipfSampler>
sharedZipf(std::uint64_t keys, double theta)
{
    static std::mutex mu;
    static std::shared_ptr<const sim::ZipfSampler> last;
    static double lastTheta = 0.0;
    const std::lock_guard<std::mutex> lock(mu);
    if (!last || last->n() != keys || theta != lastTheta) {
        last = std::make_shared<const sim::ZipfSampler>(keys, theta);
        lastTheta = theta;
    }
    return last;
}

/** Prints @p why and aborts: an illegal KvServeParams. */
[[noreturn]] void
fatalParams(const char* why)
{
    std::fprintf(stderr, "FATAL: kv_serve: %s\n", why);
    std::abort();
}

/** One in-flight transaction on a core (arena-carved POD). */
struct Flight : runtime::LaneFlight
{
    Request req;
    runtime::LaneOp ops[kMaxBody];
    unsigned footprintLines = 0;
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

class Engine
{
  public:
    Engine(const sim::MachineConfig& cfg, const KvServeParams& p)
        : cfg_(cfg), p_(p), drv_(cfg, {p.maxAttempts, p.drainAfter}),
          onLen_(2.0, 512.0, p.burstAlpha <= 1e-3 ? 1.5 : p.burstAlpha)
    {
        if (p_.tableBuckets == 0 || p_.keys == 0 || p_.ringCap == 0)
            fatalParams("empty table, key space, or ring");
        if (p_.keys > kMaxKeys)
            fatalParams("keys above kMaxKeys");
        // Negated, so that a NaN theta fails too.
        if (!(p_.zipfTheta >= 0.0))
            fatalParams("zipfTheta negative or NaN");
        if (p_.scanBuckets > kMaxScanBuckets)
            fatalParams("scanBuckets above kMaxScanBuckets");
        zipf_ = sharedZipf(p_.keys, p_.zipfTheta);
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
    bool activate(unsigned c);

    const sim::MachineConfig cfg_;
    const KvServeParams p_;
    runtime::LaneDriver drv_;
    std::shared_ptr<const sim::ZipfSampler> zipf_;
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
    auto load = [&](Addr a) { f.ops[n++] = {false, a, 0}; };
    auto store = [&](Addr a, std::uint64_t v) {
        f.ops[n++] = {true, a, v};
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
        const std::uint64_t stride =
            p_.scanStride == 0 ? 1 : p_.scanStride;
        for (unsigned j = 0; j < p_.scanBuckets; ++j) {
            const std::uint64_t b =
                (b0 + j * stride) % p_.tableBuckets;
            load(headerAddr(b));
            store(headerAddr(b) + 8, valueOf(r.rid, j));
        }
        break;
    }
    }
    f.body = f.ops;
    f.len = n;
    // Distinct-line footprint: decides the limited-set non-spec path.
    Addr lines[kMaxBody];
    unsigned nl = 0;
    for (unsigned i = 0; i < n; ++i) {
        const Addr la =
            f.ops[i].addr & ~static_cast<Addr>(kLineBytes - 1);
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
        q.key = (*zipf_)(rng);
        const double u = rng.uniform();
        if (u < p_.scanShare) {
            q.kind = ReqKind::Scan;
        } else if (u < p_.scanShare + p_.transferShare) {
            q.kind = ReqKind::Transfer;
            q.key2 = (*zipf_)(rng);
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
Engine::activate(unsigned c)
{
    CoreLane& cl = cores_[c];
    if (cl.ringCount == 0)
        refillRing(c);
    if (cl.ringCount == 0)
        return false;
    Flight& f = *cl.fl;
    f.req = cl.ring[cl.ringHead++];
    --cl.ringCount;
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
    res_.serve.idleCycles += drv_.waitUntil(c, f.req.arrival);
    return true;
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
        cl.fl->core = c;
        cl.toGenerate = p_.requests / n + (c < p_.requests % n);
        rngs_.emplace_back(p_.seed * 0x9e3779b97f4a7c15ull + c + 1);
    }
    if (p_.recordLatencies)
        res_.recordedLatencies.reserve(p_.requests);

    std::vector<runtime::LaneFlight*> batch;
    batch.reserve(n);
    for (;;) {
        drv_.openBatch(n);
        batch.clear();
        for (unsigned c = 0; c < n; ++c)
            if (activate(c))
                batch.push_back(cores_[c].fl);
        if (batch.empty())
            break;
        drv_.runBatch(
            batch,
            [this](runtime::LaneFlight& lf) {
                const Flight& f = static_cast<const Flight&>(lf);
                ++res_.serve.committed;
                const std::uint64_t lat = drv_.now() - f.req.arrival;
                res_.serve.latency.record(lat);
                if (p_.recordLatencies)
                    res_.recordedLatencies.push_back(lat);
                if (!p_.oracleCheck)
                    return;
                for (unsigned i = 0; i < f.len; ++i) {
                    if (f.ops[i].isStore) {
                        const std::size_t w =
                            (f.ops[i].addr - tableBase_) / 8;
                        oracle_[w] = f.ops[i].value;
                        oracleWritten_[w] = 1;
                    }
                }
            },
            [](runtime::LaneFlight&) {});
    }

    sim::CacheSystem& sys = drv_.sys();
    const runtime::LaneDriverStats& ds = drv_.stats();
    res_.serve.aborted = ds.rewinds;
    res_.serve.issued += ds.rewinds;
    res_.serve.drains = ds.drains;
    res_.serve.lockRestarts = ds.lockRestarts;
    res_.serve.windowResets = ds.windowResets;
    res_.makespan = drv_.now();
    res_.sys = sys.stats();
    res_.tx = sys.txPolicy().stats();
    for (const runtime::ScratchArena& a : arenas_)
        res_.scratchHighWater += a.highWater();
    sys.checkInvariants();

    if (p_.oracleCheck) {
        sys.flushDirtyToMemory();
        for (std::size_t w = 0; w < oracle_.size(); ++w) {
            if (!oracleWritten_[w])
                continue;
            const Addr addr = tableBase_ + w * 8;
            const std::uint64_t want = oracle_[w];
            const std::uint64_t got = sys.memory().read(addr, 8);
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
