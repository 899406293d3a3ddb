/**
 * @file
 * Fuzz schedules: a random program over the MTX op-set plus a
 * line-oriented text serialization used for shrunken-divergence replay
 * files (the .sched files under tests/fuzz/corpus).
 *
 * Schedules are written to stay legal under op deletion: speculative
 * VIDs are encoded as offsets above the LC watermark at execution
 * time, commits always target LC+1, and the runner silently skips ops
 * whose preconditions no longer hold (e.g. a VID reset while
 * transactions are outstanding). That is what makes ddmin shrinking
 * (check/differ.hh) sound: any subsequence of a schedule is itself a
 * valid schedule.
 */

#ifndef HMTX_CHECK_SCHEDULE_HH
#define HMTX_CHECK_SCHEDULE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/types.hh"

namespace hmtx::check
{

/** One fuzzed memory-system operation. */
enum class OpKind : std::uint8_t
{
    Load,         ///< correct-path speculative load (marks, read set)
    Store,        ///< speculative store (may trigger a §4.3 abort)
    NonSpecLoad,  ///< VID-0 load of the committed image
    NonSpecStore, ///< VID-0 store (aborts under speculative state)
    WrongPathLoad,///< branch-speculative load (§5.1 SLA source)
    Commit,       ///< commitMTX of VID LC+1 (§4.4)
    AbortAll,     ///< global abort (§4.4)
    VidReset,     ///< VID-window reset (§4.6)
    SlaConfirm,   ///< ack the oldest pending SLA with its loaded value
    SlaMismatch,  ///< ack the oldest pending SLA with a perturbed value
};

/** True for the ops that access an address (the five before Commit).
 *  Not named isAccess: hmtx_perfbench.cc has a file-local one, and
 *  argument-dependent lookup would make its calls ambiguous. */
constexpr bool
isMemoryAccess(OpKind k)
{
    switch (k) {
    case OpKind::Load:
    case OpKind::Store:
    case OpKind::NonSpecLoad:
    case OpKind::NonSpecStore:
    case OpKind::WrongPathLoad:
        return true;
    default:
        return false;
    }
}

struct Op
{
    OpKind kind = OpKind::Load;
    std::uint8_t core = 0;
    /** VID = LC + vidOff at execution time (1..8); ignored by VID-0
     *  and bulk ops. */
    std::uint8_t vidOff = 1;
    std::uint8_t size = 8; ///< access size; (addr & 7) + size <= 8
    Addr addr = 0;
    std::uint64_t value = 0; ///< store payload
};

/**
 * Semantic knobs shared by every cell of the config matrix; the
 * matrix itself (fabric × commit mode) lives in the runner.
 */
struct FuzzConfig
{
    unsigned numCores = 2;
    unsigned l1KB = 1;
    unsigned l1Assoc = 2;
    unsigned l2KB = 8;
    unsigned l2Assoc = 8;
    unsigned vidBits = 6;
    bool unboundedSpecSets = false;
    bool slaEnabled = true;
    /** Best-effort group policy: retry budget before the fallback lock
     *  arms, and the total-abort threshold for early fallback (0 =
     *  disabled). Older replay files omit the `btx` line. */
    unsigned btxRetries = 2;
    unsigned btxThreshold = 0;
    /** Limited-set group policy: speculative lines tracked per VID.
     *  Older replay files omit the `limitedk` line. */
    unsigned limitedK = 4;

    bool operator==(const FuzzConfig&) const = default;
};

/** Bits of Schedule::omittedKnobs: optional config lines a replay
 *  file may omit (they postdate the v1 format). parse() records what
 *  was missing so replay tools can print the defaults they assumed —
 *  a pre-PR-7/PR-8 witness then replays unambiguously. */
enum OmittedKnob : unsigned
{
    kOmitBtx = 1u << 0,
    kOmitLimitedK = 1u << 1,
};

struct Schedule
{
    FuzzConfig cfg;
    std::vector<Op> ops;
    /**
     * Branching extension of the replay format (`program` header
     * line): only each core's *own* op order is binding; the
     * cross-core interleaving is free. The model checker
     * (check/explorer.hh) enumerates every merge of the per-core
     * sequences; plain replay (differ::runSchedule) runs the file
     * order, which is one legal interleaving. A divergence witness is
     * always serialized flattened — the diverging interleaving in
     * file order with the flag clear — so every witness replays
     * byte-for-byte through the ordinary fuzzer and corpus test.
     */
    bool isProgram = false;
    /** Parse provenance: OmittedKnob bits for absent optional lines.
     *  Ignored by serialize() (which always emits every knob). */
    unsigned omittedKnobs = 0;
};

/**
 * Generates a random schedule of @p numOps operations. The same
 * (seed, numOps) pair always yields the same schedule. Address pools
 * deliberately collide in a handful of tiny-cache sets so eviction,
 * overflow-table spills, and capacity aborts fire constantly.
 */
Schedule generate(std::uint64_t seed, unsigned numOps);

/** Serializes to the replay text format (see DESIGN.md §10). */
std::string serialize(const Schedule& s);

/** One-line human-readable form of @p op for divergence reports. */
std::string describe(const Op& op);

/**
 * Parses a replay file. Returns false and sets @p err on malformed
 * input; accepts exactly what serialize() emits plus blank lines and
 * `#` comments. Hand-edited witnesses fail loudly rather than
 * replaying the wrong schedule: duplicate header lines, config lines
 * after the first op, out-of-range cell/knob encodings, unknown
 * tokens, and
 * truncated or over-long op lines are all explicit errors.
 */
bool parse(const std::string& text, Schedule& out, std::string& err);

} // namespace hmtx::check

#endif // HMTX_CHECK_SCHEDULE_HH
