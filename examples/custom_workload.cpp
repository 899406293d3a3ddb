/**
 * @file
 * Tutorial: writing your own speculatively parallel loop.
 *
 * The scenario: a log-analytics loop that walks a linked chain of log
 * records (the loop-carried dependence), and for each record scans a
 * shared read-only keyword table and writes a per-record match
 * bitmap. It is exactly the shape §2 motivates — a pointer chase
 * feeding independent heavy work — so it parallelizes as PS-DSWP with
 * hardware MTXs, with zero changes to the loop body's memory
 * accesses.
 *
 * The steps, in order:
 *   1. derive from ChasedListWorkload (stage 1 — the pointer chase —
 *      comes for free, including abort-recovery restart);
 *   2. allocate data in setup(): shared read-only tables anywhere,
 *      per-iteration *written* data in an IterRegion so concurrent
 *      transactions never collide on a cache line;
 *   3. implement stage2() against MemIf — plain loads/stores/branches,
 *      each written `co_await mem.op(...)` on the spot: the op runs,
 *      and a transaction abort throws, at that co_await (a plain
 *      access costs no coroutine frame, and no event when nothing
 *      else is due);
 *   4. implement checksum() so every execution model can be verified
 *      against sequential execution.
 */

#include <cinttypes>
#include <cstdio>

#include "runtime/executors.hh"
#include "smtx/smtx.hh"
#include "workloads/worklist.hh"

using namespace hmtx;
using namespace hmtx::workloads;

namespace
{

class LogScanWorkload : public ChasedListWorkload
{
  public:
    static constexpr std::uint64_t kRecords = 120;
    static constexpr unsigned kWordsPerRecord = 40;
    static constexpr unsigned kKeywords = 64;

    std::string name() const override { return "log_scan"; }
    std::uint64_t iterations() const override { return kRecords; }

    void
    setup(runtime::Machine& m) override
    {
        auto& mem = m.sys().memory();

        // Shared read-only keyword table: every transaction reads
        // it; HMTX shares it efficiently through S-S copies (§4.1).
        keywords_ = m.heap().allocWords(kKeywords);
        for (unsigned k = 0; k < kKeywords; ++k)
            mem.write(keywords_ + k * 8, mix64(0xFEED ^ k) & 0xffff,
                      8);

        // The records themselves (read-only payloads).
        records_ = m.heap().allocWords(kRecords * kWordsPerRecord);
        for (std::uint64_t r = 0; r < kRecords; ++r)
            for (unsigned w = 0; w < kWordsPerRecord; ++w)
                mem.write(records_ + (r * kWordsPerRecord + w) * 8,
                          mix64(0xAB ^ (r << 8) ^ w) & 0xffff, 8);

        // Per-record output: one line-disjoint chunk per iteration,
        // so concurrent transactions never share a written line.
        bitmaps_.init(m, kRecords, 1);

        // The work list is the linked chain of records; its traversal
        // is the loop-carried dependence stage 1 speculates through.
        std::vector<std::uint64_t> payloads(kRecords);
        for (std::uint64_t r = 0; r < kRecords; ++r)
            payloads[r] = records_ + r * kWordsPerRecord * 8;
        initWorkList(m, payloads);
    }

    sim::Task<void>
    stage2(runtime::MemIf& mem, std::uint64_t iter) override
    {
        // The record address arrives from stage 1 through versioned
        // memory — the producedNode idiom of Figure 3.
        Addr rec = co_await fetchWork(mem, iter);

        std::uint64_t bitmap = 0;
        for (unsigned w = 0; w < kWordsPerRecord; ++w) {
            std::uint64_t word = co_await mem.load(rec + w * 8);
            // Probe the shared keyword table.
            std::uint64_t kw = co_await mem.load(
                keywords_ + (word % kKeywords) * 8);
            bool hit = ((word ^ kw) & 0xff) == 0;
            co_await mem.branch(0xC00, hit);
            if (hit)
                bitmap |= std::uint64_t{1} << (w % 64);
            co_await mem.compute(2);
        }
        co_await mem.store(bitmaps_.at(iter), bitmap);
    }

    std::uint64_t
    checksum(runtime::Machine& m) override
    {
        std::uint64_t s = 0;
        for (std::uint64_t r = 0; r < kRecords; ++r)
            s = mix64(s ^ m.sys().memory().read(bitmaps_.at(r), 8));
        return s;
    }

  private:
    Addr keywords_ = 0;
    Addr records_ = 0;
    IterRegion bitmaps_;
};

} // namespace

int
main()
{
    sim::MachineConfig cfg; // the Table 2 machine

    LogScanWorkload seq, hm, sm;
    runtime::ExecResult rs = runtime::Runner::runSequential(seq, cfg);
    runtime::ExecResult rh = runtime::Runner::runHmtx(hm, cfg);
    runtime::ExecResult rm =
        smtx::SmtxRunner::run(sm, cfg, smtx::RwSetMode::Maximal);

    std::printf("custom workload 'log_scan' (%" PRIu64
                " records) across execution models:\n\n",
                LogScanWorkload::kRecords);
    std::printf("  %-18s %10" PRIu64 " cycles\n", "sequential",
                rs.cycles);
    std::printf("  %-18s %10" PRIu64 " cycles  (%.2fx, %" PRIu64
                " TXs, %" PRIu64 " aborts)\n",
                rh.model.c_str(), rh.cycles,
                double(rs.cycles) / double(rh.cycles),
                rh.transactions, rh.stats.aborts);
    std::printf("  %-18s %10" PRIu64 " cycles  (%.2fx)\n",
                rm.model.c_str(), rm.cycles,
                double(rs.cycles) / double(rm.cycles));

    bool ok = rh.checksum == rs.checksum && rm.checksum == rs.checksum;
    std::printf("\noutputs: %s\n",
                ok ? "all models identical" : "MISMATCH (bug)");
    std::printf("\nThe loop body never mentions transactions: the "
                "executor brackets each\niteration with "
                "beginMTX/commitMTX, the hardware validates every "
                "access, and the\nsame body runs under SMTX for "
                "comparison.\n");
    return ok ? 0 : 1;
}
