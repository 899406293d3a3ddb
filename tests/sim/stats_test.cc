/**
 * @file
 * Tests of the derived metrics in SysStats and the StatsReport
 * formatter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/stats_report.hh"

namespace hmtx::sim
{
namespace
{

TEST(SysStats, DerivedMetricsHandleZeroTransactions)
{
    SysStats s;
    EXPECT_EQ(s.avgReadSetKB(), 0.0);
    EXPECT_EQ(s.avgWriteSetKB(), 0.0);
    EXPECT_EQ(s.avgCombinedSetKB(), 0.0);
    EXPECT_EQ(s.avgSpecAccessesPerTx(), 0.0);
    EXPECT_EQ(s.slaNeededRate(), 0.0);
}

TEST(SysStats, SetSizesConvertLinesToKilobytes)
{
    SysStats s;
    s.committedTxs = 4;
    s.readSetLines = 64;  // 64 lines * 64 B = 4 kB over 4 TXs
    s.writeSetLines = 32;
    s.combinedSetLines = 80;
    EXPECT_DOUBLE_EQ(s.avgReadSetKB(), 1.0);
    EXPECT_DOUBLE_EQ(s.avgWriteSetKB(), 0.5);
    EXPECT_DOUBLE_EQ(s.avgCombinedSetKB(), 1.25);
}

TEST(SysStats, AccessAndSlaRates)
{
    SysStats s;
    s.committedTxs = 10;
    s.specLoads = 900;
    s.specStores = 100;
    s.slaNeeded = 90;
    EXPECT_DOUBLE_EQ(s.avgSpecAccessesPerTx(), 100.0);
    EXPECT_DOUBLE_EQ(s.slaNeededRate(), 0.1);
}

/** @p r printed, as row name -> value text. */
template <typename Report>
std::map<std::string, std::string>
printedRows(const Report& r)
{
    char buf[16384];
    std::memset(buf, 0, sizeof(buf));
    std::FILE* f = fmemopen(buf, sizeof(buf) - 1, "w");
    EXPECT_NE(f, nullptr);
    r.print(f);
    std::fclose(f);
    std::map<std::string, std::string> rows;
    std::istringstream in(buf);
    std::string name, value;
    std::string rest;
    while (in >> name >> value) {
        EXPECT_TRUE(rows.emplace(name, value).second) << name;
        std::getline(in, rest);
    }
    return rows;
}

TEST(StatsReport, PrintsEveryStatGroup)
{
    SysStats s;
    s.loads = 123;
    s.commits = 7;
    s.slaNeeded = 3;
    s.specSpills = 2;
    s.committedTxs = 7;

    char buf[16384];
    std::memset(buf, 0, sizeof(buf));
    std::FILE* f = fmemopen(buf, sizeof(buf) - 1, "w");
    ASSERT_NE(f, nullptr);
    StatsReport(s).print(f);
    std::fclose(f);

    std::string out(buf);
    for (const char* key :
         {"mem.loads", "cache.l1MissRate", "fabric.busTxns",
          "hmtx.commits", "sla.needed", "overflow.specSpills",
          "tx.avgSpecAccesses"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
    EXPECT_NE(out.find("123"), std::string::npos);
    // Groups stay absent unless they are handed to the report.
    EXPECT_EQ(out.find("config.txMode"), std::string::npos);
    EXPECT_EQ(out.find("sim.txmode."), std::string::npos);
    EXPECT_EQ(out.find("sim.serve."), std::string::npos);
}

TEST(StatsReport, RowsComeFromTheFieldTables)
{
    // Counters the hand-written report skipped now print too, each
    // under its table name and with its own value.
    SysStats s;
    s.capacityAborts = 5;
    s.slaConfirms = 6;
    s.slaMismatchAborts = 7;
    s.falseAbortsWrongPath = 8;
    s.corDuplicates = 9;
    s.readSetLines = 10;
    s.writeSetLines = 11;
    s.combinedSetLines = 12;
    s.maxCombinedSetLines = 13;
    s.l1Hits = 3;
    s.l1Misses = 1;
    IndexStats idx;
    idx.snoopsVisited = 1;
    idx.snoopsFiltered = 3;
    const auto rows = printedRows(StatsReport(s, idx));
    const std::map<std::string, std::string> want = {
        {"hmtx.capacityAborts", "5"},
        {"sla.confirms", "6"},
        {"sla.mismatchAborts", "7"},
        {"hmtx.falseAbortsWrongPath", "8"},
        {"hmtx.corDuplicates", "9"},
        {"tx.readSetLines", "10"},
        {"tx.writeSetLines", "11"},
        {"tx.combinedSetLines", "12"},
        {"tx.maxCombinedSetLines", "13"},
        {"cache.l1MissRate", "0.2500"},
        {"sim.snoopFilterRate", "0.7500"},
    };
    for (const auto& [name, value] : want) {
        ASSERT_TRUE(rows.count(name)) << name;
        EXPECT_EQ(rows.at(name), value) << name;
    }
    // One row per table entry plus the derived rows, nothing else.
    EXPECT_EQ(rows.size(), std::size(SysStats::kFields) + 5 +
                               std::size(IndexStats::kFields) + 1);
}

TEST(StatsReport, PrintsExactlyTheGroupsHanded)
{
    TxModeStats tx;
    tx.retryAborts = 2;
    const auto rows = printedRows(StatsReport(tx));
    EXPECT_EQ(rows.size(), std::size(TxModeStats::kFields));
    EXPECT_EQ(rows.at("sim.txmode.retryAborts"), "2");
    EXPECT_EQ(rows.count("mem.loads"), 0u);
}

TEST(StatsReport, EchoesTxModeConfigAndCounters)
{
    SysStats s;
    MachineConfig cfg;
    cfg.txMode = TxMode::BestEffort;
    cfg.btxMaxRetries = 3;
    cfg.btxAbortThreshold = 9;
    cfg.limitedSetK = 5;
    TxModeStats tx;
    tx.fallbackEntries = 4;
    tx.fallbackAccesses = 17;
    tx.fallbackCommits = 4;
    tx.fallbackCycles = 420;
    tx.retryAborts = 11;
    tx.earlyFallbacks = 1;
    tx.limitedSetAborts = 0;

    char buf[16384];
    std::memset(buf, 0, sizeof(buf));
    std::FILE* f = fmemopen(buf, sizeof(buf) - 1, "w");
    ASSERT_NE(f, nullptr);
    StatsReport(cfg, s, tx).print(f);
    std::fclose(f);

    std::string out(buf);
    for (const char* key :
         {"config.txMode", "best-effort", "config.btxMaxRetries",
          "config.btxAbortThreshold", "config.limitedSetK",
          "sim.txmode.retryAborts", "sim.txmode.fallbackEntries",
          "sim.txmode.fallbackAccesses", "sim.txmode.fallbackCommits",
          "sim.txmode.fallbackCycles", "sim.txmode.fallbackWrapRemaps",
          "sim.txmode.earlyFallbacks",
          "sim.txmode.limitedSetAborts"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
}

TEST(StatsReport, PrintsServeGroupWhenGiven)
{
    SysStats s;
    ServeStats sv;
    sv.requests = 100;
    sv.issued = 120;
    sv.committed = 100;
    sv.aborted = 20;
    sv.drains = 4;
    sv.windowResets = 2;
    sv.batches = 3;
    for (std::uint64_t i = 1; i <= 100; ++i)
        sv.latency.record(i * 10);

    char buf[16384];
    std::memset(buf, 0, sizeof(buf));
    std::FILE* out_f = fmemopen(buf, sizeof(buf) - 1, "w");
    ASSERT_NE(out_f, nullptr);
    StatsReport(s, sv).print(out_f);
    std::fclose(out_f);

    std::string out(buf);
    for (const char* key :
         {"sim.serve.requests", "sim.serve.issued",
          "sim.serve.committed", "sim.serve.aborted",
          "sim.serve.drains", "sim.serve.nonSpecFallbacks",
          "sim.serve.windowResets", "sim.serve.batches",
          "sim.serve.idleCycles", "sim.serve.latencyP50",
          "sim.serve.latencyP99", "sim.serve.latencyP999",
          "sim.serve.latencyMax", "sim.serve.latencyMean"}) {
        EXPECT_NE(out.find(key), std::string::npos) << key;
    }
    EXPECT_TRUE(sv.consistent());
    sv.aborted = 19; // attempt lost without commit or abort
    EXPECT_FALSE(sv.consistent());
}

TEST(LatencyHistogram, ExactBucketsBelowThirtyTwo)
{
    // Values under 2^(kSubBits+1) get single-value buckets, so small
    // latencies suffer zero quantization.
    for (std::uint64_t v = 0; v < 32; ++v) {
        EXPECT_EQ(LatencyHistogram::bucketOf(v), v);
        EXPECT_EQ(LatencyHistogram::bucketFloor(v), v);
    }
}

TEST(LatencyHistogram, BucketBoundsInvertAndStayOrdered)
{
    // lowerBoundOf must invert bucketOf on every bucket boundary, and
    // bucket indexes must be monotone in the value.
    for (unsigned b = 0; b < LatencyHistogram::kBuckets; ++b) {
        const std::uint64_t lo = LatencyHistogram::lowerBoundOf(b);
        EXPECT_EQ(LatencyHistogram::bucketOf(lo), b) << "bucket " << b;
        if (lo > 0) {
            EXPECT_EQ(LatencyHistogram::bucketOf(lo - 1), b - 1);
        }
    }
    EXPECT_EQ(LatencyHistogram::bucketOf(~std::uint64_t{0}),
              LatencyHistogram::kBuckets - 1);
}

TEST(LatencyHistogram, QuantizationErrorIsBounded)
{
    // Log-linear with 16 sub-buckets per octave: the bucket floor is
    // never more than 1/16 (~6.25%) below the sample.
    for (std::uint64_t v : {37ull, 100ull, 999ull, 4096ull, 65537ull,
                            1000000ull, 123456789ull}) {
        const std::uint64_t f = LatencyHistogram::bucketFloor(v);
        EXPECT_LE(f, v);
        EXPECT_LT(static_cast<double>(v - f),
                  static_cast<double>(v) / 16.0 + 1.0)
            << v;
    }
}

TEST(LatencyHistogram, PercentilesMatchSortBasedRecompute)
{
    // Streaming percentiles must equal the nearest-rank percentile of
    // the full sorted sample list after identical bucketization — the
    // exactness contract the kv_serve smoke test relies on.
    LatencyHistogram h;
    std::vector<std::uint64_t> vals;
    std::uint64_t x = 88172645463325252ull;
    for (int i = 0; i < 10000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const std::uint64_t v = x % 2000000;
        vals.push_back(v);
        h.record(v);
    }
    std::sort(vals.begin(), vals.end());
    EXPECT_EQ(h.count(), vals.size());
    EXPECT_EQ(h.max(), vals.back());
    EXPECT_EQ(h.min(), vals.front());
    for (double q : {0.5, 0.9, 0.99, 0.999, 1.0}) {
        const auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(vals.size())));
        EXPECT_EQ(h.percentile(q),
                  LatencyHistogram::bucketFloor(vals[rank - 1]))
            << "q=" << q;
    }
}

TEST(LatencyHistogram, MergeFoldsCounts)
{
    LatencyHistogram a, b;
    for (std::uint64_t v = 1; v <= 50; ++v)
        a.record(v);
    for (std::uint64_t v = 51; v <= 100; ++v)
        b.record(v);
    a.merge(b);
    EXPECT_EQ(a.count(), 100u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 100u);
    EXPECT_EQ(a.percentile(0.5), LatencyHistogram::bucketFloor(50));
}

TEST(LatencyHistogram, EmptyHistogramIsAllZero)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
}

} // namespace
} // namespace hmtx::sim
