/**
 * @file
 * Machine configuration (Table 2 of the paper) and HMTX feature knobs.
 */

#ifndef HMTX_SIM_CONFIG_HH
#define HMTX_SIM_CONFIG_HH

#include <cstdint>
#include <stdexcept>

#include "core/tx_policy.hh"
#include "core/types.hh"

namespace hmtx::sim
{

/**
 * Coherence interconnect model (§8 future work). The snoopy bus of
 * the evaluated design serializes every coherence transaction; the
 * directory fabric resolves misses through address-interleaved
 * directory banks with point-to-point hops, so independent
 * transactions proceed concurrently and the protocol scales to more
 * cores. The HMTX version rules are identical on both fabrics.
 */
enum class Fabric
{
    SnoopBus,
    Directory,
};

/**
 * Architectural configuration, defaulted to Table 2: a 4-core 2.0 GHz
 * machine with 64 KB 8-way L1s (2-cycle), a shared 32 MB 32-way L2
 * (40-cycle), 64 B lines, MOESI, and 200-cycle memory.
 *
 * The HMTX knobs correspond to the design options the paper discusses:
 * SLA (§5.1), lazy vs. naive commit/abort processing (§5.3/§4.4), VID
 * width (§4.5/§4.6), and the Vachharajani copy-on-read policy the
 * related-work section argues against (§7.1).
 */
struct MachineConfig
{
    /** Number of cores (Table 2 evaluates 4). */
    unsigned numCores = 4;

    /** L1 data cache capacity in KB. */
    unsigned l1SizeKB = 64;
    /** L1 associativity. */
    unsigned l1Assoc = 8;
    /** L1 hit latency in cycles. */
    Cycles l1Latency = 2;

    /** Shared L2 capacity in KB (32 MB in Table 2). */
    unsigned l2SizeKB = 32 * 1024;
    /** L2 associativity. */
    unsigned l2Assoc = 32;
    /** L2 / cache-to-cache transfer latency in cycles. */
    Cycles l2Latency = 40;

    /** Main memory latency in cycles. */
    Cycles memLatency = 200;

    /** Bus occupancy per coherence transaction, in cycles. */
    Cycles busCycles = 4;

    /** Interconnect model; the paper evaluates the snoopy bus. */
    Fabric fabric = Fabric::SnoopBus;
    /** Directory fabric: number of address-interleaved banks. */
    unsigned dirBanks = 8;
    /** Directory fabric: bank lookup/occupancy cycles. */
    Cycles dirLookup = 12;
    /** Directory fabric: one network hop, cycles. */
    Cycles dirHop = 14;

    /**
     * Unbounded speculative sets (§8 future work / [27]): speculative
     * versions evicted from the last-level cache spill into a
     * memory-resident overflow table instead of aborting, and refill
     * on demand.
     */
    bool unboundedSpecSets = false;

    /** Records protocol actions in CacheSystem::trace(). */
    bool traceEnabled = false;

    /** VID field width m; the evaluated design uses 6 (§4.5). */
    unsigned vidBits = 6;

    /** Master enable for the HMTX extensions. */
    bool hmtxEnabled = true;

    /**
     * Speculative load acknowledgments (§5.1). When disabled,
     * wrong-path loads mark lines with their VID and can cause false
     * misspeculation, as in all prior systems.
     */
    bool slaEnabled = true;

    /**
     * Transaction-mode axis (core/tx_policy.hh). LazyHmtx is the
     * paper's O(1) watermark commit (§5.3); EagerHmtx models the naive
     * §4.4 scheme where every commit/abort walks all speculative lines
     * and charges time per line; BestEffort and LimitedSet are the
     * capacity-bounded HTM variants (serialized fallback after N
     * aborts / first-K-lines speculative sets).
     */
    TxMode txMode = TxMode::LazyHmtx;

    /** BestEffort: speculative attempts before arming the fallback. */
    unsigned btxMaxRetries = 2;

    /** BestEffort: cumulative-abort threshold collapsing the retry
     *  budget to one attempt (0 = disabled). */
    unsigned btxAbortThreshold = 0;

    /** LimitedSet: max distinct speculative lines per VID. */
    unsigned limitedSetK = 4;

    /**
     * Vachharajani-style policy that creates a new cache line version
     * on every read from a new VID (§7.1 ablation). HMTX proper only
     * copies on speculative writes.
     */
    bool copyOnRead = false;

    /** Wrong-path loads injected per branch misprediction. */
    unsigned wrongPathLoads = 2;

    /** Pipeline refill penalty of a branch misprediction, in cycles. */
    Cycles mispredictPenalty = 12;

    /** Depth of the per-core SLA buffer (§5.1). */
    unsigned slaCapacity = 32;

    /** Cycles charged per line processed by the naive commit walk. */
    Cycles eagerPerLineCycles = 2;

    /**
     * Abort-recovery budget: the runtime raises an error once a run
     * recovers this many times (false-misspeculation livelock, the
     * failure mode §5.1 exists to prevent).
     */
    std::uint64_t maxRecoveries = 1u << 20;

    /**
     * Reference mode for differential tests and benchmarks: bypass the
     * per-set snoop summaries and the per-cache spec-line registry and
     * run every snoop/bulk walk as a full scan, exactly like the
     * pre-index simulator. Simulated behaviour (timings, stats, memory
     * images) is identical either way; only the simulator's own
     * wall-clock cost changes.
     */
    bool forceFullScan = false;

    /**
     * Debug aid: after every commit/abortAll/vidReset/flush, rebuild
     * the index structures from a full scan and throw std::logic_error
     * on any mismatch (see CacheSystem::verifyIndexes()). Expensive;
     * meant for tests.
     */
    bool indexCrossCheck = false;

    /** Largest usable VID for this configuration. */
    Vid maxVid() const { return (Vid{1} << vidBits) - 1; }

    /** The TxPolicy knobs this configuration selects. */
    TxPolicyConfig
    txPolicy() const
    {
        return {txMode, btxMaxRetries, btxAbortThreshold, limitedSetK};
    }

    /**
     * Rejects contradictory or unsupported knob combinations with a
     * descriptive std::invalid_argument. CacheSystem calls this at
     * construction, so a bad config fails loudly instead of silently
     * simulating something other than what was asked for.
     */
    void
    validate() const
    {
        validateTxPolicyConfig(txPolicy());
        const bool bounded = txMode == TxMode::BestEffort ||
            txMode == TxMode::LimitedSet;
        if (bounded && unboundedSpecSets)
            throw std::invalid_argument(
                "MachineConfig: unboundedSpecSets contradicts the "
                "capacity-bounded txMode (best-effort / limited-set "
                "exist to model machines *without* the overflow "
                "table); disable one of the two");
    }

    /** Number of sets in the L1. */
    unsigned
    l1Sets() const
    {
        return l1SizeKB * 1024 / kLineBytes / l1Assoc;
    }

    /** Number of sets in the L2. */
    unsigned
    l2Sets() const
    {
        return l2SizeKB * 1024 / kLineBytes / l2Assoc;
    }
};

} // namespace hmtx::sim

#endif // HMTX_SIM_CONFIG_HH
