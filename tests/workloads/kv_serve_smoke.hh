/**
 * @file
 * The serving smoke cell shared by the kv_serve test executables: the
 * bench's tiny serving hierarchy (bench/ext_kv_serving.cc), so the
 * strided scans genuinely overflow it, and a small request mix.
 */

#ifndef HMTX_TESTS_WORKLOADS_KV_SERVE_SMOKE_HH
#define HMTX_TESTS_WORKLOADS_KV_SERVE_SMOKE_HH

#include <cstdint>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "workloads/kv_serve.hh"

namespace hmtx::kv_smoke
{

inline sim::MachineConfig
smokeConfig(TxMode mode)
{
    sim::MachineConfig cfg;
    cfg.numCores = 4;
    cfg.l1SizeKB = 1;
    cfg.l1Assoc = 2;
    cfg.l2SizeKB = 8;
    cfg.l2Assoc = 8;
    cfg.vidBits = 8;
    cfg.txMode = mode;
    if (mode == TxMode::BestEffort) {
        cfg.btxMaxRetries = 2;
        cfg.btxAbortThreshold = 8;
        cfg.unboundedSpecSets = false;
    } else if (mode == TxMode::LimitedSet) {
        cfg.limitedSetK = 4;
        cfg.unboundedSpecSets = false;
    } else {
        cfg.unboundedSpecSets = true;
    }
    cfg.validate();
    return cfg;
}

inline workloads::KvServeParams
smokeParams(std::uint64_t requests)
{
    workloads::KvServeParams p;
    p.requests = requests;
    p.tableBuckets = 2048;
    p.keys = 8192;
    p.zipfTheta = 0.9;
    p.writeRatio = 0.5;
    p.transferShare = 0.15;
    p.scanShare = 0.05;
    p.arrivalMeanGap = 1500;
    p.burstDuty = 1.0;
    p.seed = 7;
    return p;
}

/** consistent() plus the oracle verdict, with a readable message. */
inline void
expectClean(const workloads::KvServeResult& r, const char* what)
{
    EXPECT_TRUE(r.oracleOk)
        << what << ": final table diverged from the oracle";
    EXPECT_TRUE(r.serve.consistent())
        << what << ": issued " << r.serve.issued << " != committed "
        << r.serve.committed << " + aborted " << r.serve.aborted;
}

} // namespace hmtx::kv_smoke

#endif // HMTX_TESTS_WORKLOADS_KV_SERVE_SMOKE_HH
