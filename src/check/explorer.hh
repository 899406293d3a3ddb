/**
 * @file
 * Bounded-exhaustive interleaving model checker (DESIGN.md §14).
 *
 * The fuzzer (check/differ.hh) samples the schedule space; this layer
 * *enumerates* it for small programs. A program is a Schedule whose
 * per-core op order is binding while the cross-core interleaving is
 * free (Schedule::isProgram); explore() walks every merge of the
 * per-core sequences at the protocol-decision preemption points —
 * which core issues its next access, and (optionally) which way each
 * DirectoryFabric delivery decision goes — and runs each complete
 * interleaving through the differential runner against the
 * GoldenModel, stepping every distinct prefix once and checkpointing
 * the cells at branch points (CellMatrix::save/restore) — except that
 * a branch point at most two ops below its nearest checkpoint
 * restores that one and steps those ops again (takesCheckpoint()).
 * Any divergence comes back with the flattened interleaving as a
 * replayable witness.
 *
 * Pruning is sleep-set DPOR (landslide-style, Godefroid's algorithm)
 * keyed on line-address commutativity classes: accesses to different
 * lines commute;
 * same-line accesses, potentially-aborting ops (stores, every bulk
 * op), and ops coupled through the TxPolicy state machine or the SLA
 * FIFO do not. With the relation below, sleep sets visit exactly one
 * linearization per Mazurkiewicz trace, so a clean pruned pass proves
 * every interleaving clean — see §14 for the soundness argument and
 * its one stated assumption (no environmental capacity aborts, which
 * generateProgram guarantees by construction and ExploreStats
 * reports as a tripwire).
 */

#ifndef HMTX_CHECK_EXPLORER_HH
#define HMTX_CHECK_EXPLORER_HH

#include <cstddef>
#include <cstdint>

#include "check/differ.hh"
#include "check/schedule.hh"

namespace hmtx::check
{

/** Knobs for one exhaustive exploration of a program. */
struct ExploreConfig
{
    /** Cell groups every interleaving replays against (differ.hh). */
    unsigned groupMask = kGroupAll;
    /** Sleep-set/DPOR pruning; off = enumerate every interleaving. */
    bool prune = true;
    /** Max complete interleavings to replay before giving up (the
     *  space is multinomial in the per-core op counts). */
    std::uint64_t maxInterleavings = 1u << 20;
    /**
     * Directory delivery-order exploration: branch on the first N
     * DeliveryChooser decision points of each interleaving (2^N
     * replays worst-case per interleaving). 0 = FIFO only, no
     * chooser installed — the pre-§14 behaviour.
     */
    unsigned deliveryPoints = 0;
};

/** What one exploration did, for reports and coverage assertions. */
struct ExploreStats
{
    /** Complete interleavings replayed through the differ. */
    std::uint64_t explored = 0;
    /** Branch choices cut by the sleep sets (each cuts a subtree). */
    std::uint64_t pruned = 0;
    /** Extra replays spent on delivery-order branching. */
    std::uint64_t deliveryRuns = 0;
    /** Delivery decision points the fabric reported (max per replay,
     *  summed over interleavings; 0 unless deliveryPoints > 0). */
    std::uint64_t deliveryPointsSeen = 0;
    /**
     * Replays in which an *environmental* capacity abort fired.
     * The pruning soundness argument (§14) assumes none; a nonzero
     * count means the program over-pressured the tiny caches and the
     * pruned pass must not be read as exhaustive.
     */
    std::uint64_t envAborts = 0;
    /** Matrix checkpoints the DFS took (takesCheckpoint()). */
    std::uint64_t checkpoints = 0;
    /** Ops stepped again after a restore, to rebuild a branch node
     *  that took no checkpoint of its own. */
    std::uint64_t reSteps = 0;
    /** Counter table; hmtx_mc prints its summary from it. */
    static constexpr StatField<ExploreStats> kFields[] = {
        {"explored", &ExploreStats::explored,
         "complete interleavings replayed"},
        {"pruned", &ExploreStats::pruned, "branch choices cut by sleep sets"},
        {"deliveryRuns", &ExploreStats::deliveryRuns,
         "extra replays spent on delivery-order branching"},
        {"deliveryPointsSeen", &ExploreStats::deliveryPointsSeen,
         "delivery decision points reported"},
        {"envAborts", &ExploreStats::envAborts,
         "replays in which an environmental capacity abort fired"},
        {"checkpoints", &ExploreStats::checkpoints,
         "matrix checkpoints the DFS took"},
        {"reSteps", &ExploreStats::reSteps,
         "ops re-stepped after a restore"},
    };

    /** maxInterleavings was hit; the pass is a prefix, not a proof.
     *  Kept last and outside the field table: it is a flag, not a
     *  counter. */
    bool budgetExhausted = false;
};

static_assert(offsetof(ExploreStats, budgetExhausted) ==
                  std::size(ExploreStats::kFields) * sizeof(std::uint64_t),
              "every ExploreStats counter needs a kFields entry");

/** Outcome of explore(). */
struct ExploreResult
{
    /** First divergence met, untouched (found == false when clean). */
    Divergence div;
    /** The diverging interleaving, flattened to a plain replayable
     *  schedule (valid only when div.found). */
    Schedule witness;
    ExploreStats stats;
};

/**
 * Exhaustively explores @p program (its ops split by core, per-core
 * order preserved). Stops at the first divergence or when the budget
 * is exhausted. Throws std::invalid_argument if an op names a core
 * outside cfg.numCores, or if the machine has more than 64 cores (a
 * sleep set is a 64-bit mask). Throws std::logic_error if, at a leaf,
 * the ops the cells stepped are not the leaf's interleaving (a DFS
 * rewind that rebuilt the wrong prefix).
 *
 * Each thread keeps one CellMatrix across calls and retargets it to
 * each program's config (rebuilt only when the group mask or the
 * machine structure changes), so a batch of programs builds its cells
 * once. What a call returns does not depend on the calls before it.
 */
ExploreResult explore(const Schedule& program,
                      const ExploreConfig& cfg = {});

/**
 * Where the DFS checkpoints the matrix (DESIGN.md §14) — exposed so
 * tests can walk the same tree. The node at @p depth, with @p children
 * unslept children to explore and its nearest checkpointed ancestor at
 * depth @p anc, saves a checkpoint when it is the root, or when it
 * branches and lies more than two ops below @p anc. Every other branch
 * node restores @p anc before each child after the first and steps
 * the ops in between again.
 */
bool takesCheckpoint(std::size_t depth, std::size_t anc,
                     unsigned children);

/**
 * The independence relation the sleep sets prune with — exposed so
 * tests can pin it down. @p a and @p b are ops of *different* cores;
 * @p hasSlaOps tells whether the surrounding program contains
 * explicit SlaConfirm/SlaMismatch ops (they consume the pending-SLA
 * FIFO, coupling correct-path loads); @p groupMask is the cell-group
 * mask the exploration replays against (the bounded modes couple
 * spec accesses through the TxPolicy state machine).
 */
bool opsIndependent(const Op& a, const Op& b, bool hasSlaOps,
                    unsigned groupMask);

/**
 * Generates a random small program for model checking: @p cores
 * per-core sequences totalling @p numOps ops over 2-3 cache lines
 * chosen to collide in *no* L1/L2 set, so environmental capacity
 * aborts cannot fire and the pruning argument holds (§14). The same
 * (seed, cores, numOps) triple always yields the same program.
 */
Schedule generateProgram(std::uint64_t seed, unsigned cores,
                         unsigned numOps);

} // namespace hmtx::check

#endif // HMTX_CHECK_EXPLORER_HH
