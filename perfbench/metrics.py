"""Reduces one hmtx_perfbench JSON document to the benchmark's metrics.

The driver binary reports raw passes: host timings, the simulated
statistics of every call (``sim``), simulator-side counters (``side``)
and one span sample per call into a layer's API.
This module turns them into

* the end-to-end metrics, from the untraced passes;
* the per-layer metrics, from the traced passes;
* report-only figures (workload-specific end-to-end numbers, the
  Figure 8 paper comparison, the simulated-statistics digest);
* the correctness tally (checks attempted and failed).
"""

import hashlib
import json
import math
import statistics

WORKLOADS = ("fig8", "serve_uniform_read", "serve_skewed_write", "mc_check")
MODES = ("lazy-hmtx", "eager-hmtx", "best-effort", "limited-set")
FABRICS = ("snoop-bus", "directory")

# End-to-end metrics measured on every workload (name -> unit).
END_TO_END = {
    "host_accesses_per_s": "accesses/s",
    "host_rss_mb": "MiB",
    "setup_s": "s",
}

# Host-time spans: metric base name -> (span recorded by the driver,
# scale to the metric's unit, unit). Each yields the median, the tail
# percentile of TAIL_LADDER and the sample count.
SPANS = {
    "runtime.seq_s": ("runtime.seq", 1.0, "s"),
    "runtime.hmtx_s": ("runtime.hmtx", 1.0, "s"),
    "smtx.run_s": ("smtx.run", 1.0, "s"),
    "serve.loop_s": ("serve.loop", 1.0, "s"),
    "serve.setup_s": ("serve.setup", 1.0, "s"),
    "check.generate_s": ("check.generate", 1.0, "s"),
    "check.explore_s": ("check.explore", 1.0, "s"),
    "check.replay_us": ("check.replay", 1e6, "us"),
}

COUNTERS = {
    "runtime.host_ns_per_access": "ns",
    "runtime.instructions": "count",
    "runtime.transactions": "count",
    "runtime.vid_stall_cycles": "cycles",
    "runtime.sim_speedup_geomean": "x",
    "smtx.speedup_geomean": "x",
    "smtx.misspeculations": "count",
    "sim.loads": "count",
    "sim.stores": "count",
    "sim.l1_hit_ratio": "ratio",
    "sim.snoop_hits": "count",
    "sim.mem_fetches": "count",
    "sim.writebacks": "count",
    "sim.index.snoop_filter_ratio": "ratio",
    "sim.net.bus_txns": "txns/access",
    "sim.net.dir_lookups": "lookups/access",
    "sim.commits": "count",
    "sim.aborts": "count",
    "sim.capacity_aborts": "count",
    "sim.vid_resets": "count",
    "sim.commit_processing_cycles": "cycles",
    "sim.spec_spills": "count",
    "sim.spec_refills": "count",
    "sim.index.registry_walks": "count",
    "sim.index.registry_walk_lines_per_walk": "lines",
    "tx.fallback_entries": "count",
    "tx.fallback_accesses": "count",
    "tx.fallback_cycles": "cycles",
    "tx.retry_aborts": "count",
    "tx.limited_set_aborts": "count",
    **{f"tx.p999_cyc.{m}": "cycles" for m in MODES},
    **{f"serve.requests_per_s.{m}.{f}": "req/s"
       for m in MODES for f in FABRICS},
    "serve.host_requests_per_s": "req/s",
    "serve.commit_ratio": "ratio",
    "serve.drains": "count",
    "serve.lock_restarts": "count",
    "serve.non_spec_fallbacks": "count",
    "serve.window_resets": "count",
    "serve.idle_cycles": "cycles",
    "serve.scratch_high_water_bytes": "bytes",
    "serve.sim_cycles_per_req": "cycles",
    "serve.sim_latency_p50_cyc": "cycles",
    "serve.sim_latency_p99_cyc": "cycles",
    "serve.sim_latency_p999_cyc": "cycles",
    "serve.latency_samples": "count",
    "check.host_interleavings_per_s": "interleavings/s",
    "check.explored": "count",
    "check.pruned_ratio": "ratio",
    "check.divergences": "count",
    "check.env_aborts": "count",
    "trace.overhead.host_accesses_per_s": "accesses/s",
    "trace.overhead.host_requests_per_s": "req/s",
    "trace.overhead.host_interleavings_per_s": "interleavings/s",
}


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for base, (_, _, unit) in SPANS.items():
        units[base] = unit
        units[base + ".tail"] = unit
        units[base + ".n"] = "count"
    units.update(COUNTERS)
    return units


# ---------------------------------------------------------------------
# Timing summaries and the digest.

TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75)
MIN_BEYOND = 10


def nearest_rank(sorted_values, q):
    """Nearest-rank percentile q in (0, 1] of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def tail_percentile(samples):
    """The highest TAIL_LADDER percentile that has at least MIN_BEYOND
    samples beyond it, as (q, value). With too few samples for any
    ladder step, the median, as (0.5, value)."""
    s = sorted(samples)
    for q in TAIL_LADDER:
        if len(s) - max(1, math.ceil(q * len(s))) >= MIN_BEYOND:
            return q, nearest_rank(s, q)
    return 0.5, statistics.median(s)


def timing(samples):
    """Median, tail percentile and sample count of host timings."""
    if not samples:
        return {"median": 0.0, "q": 0.5, "tail": 0.0, "n": 0}
    q, tail = tail_percentile(samples)
    return {"median": statistics.median(samples), "q": q, "tail": tail,
            "n": len(samples)}


def digest(sim):
    """Hash of simulated statistics: equal iff every field is equal."""
    canon = json.dumps(sim, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------
# Simulated-statistics views.

def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def fig8_runs(sim):
    """(proxy, model, exec stats) for every runner call of a fig8 pass."""
    for proxy, models in sim.items():
        for model, r in models.items():
            yield proxy, model, r


def fig8_speedups(sim):
    """Per proxy: (HMTX speedup, SMTX-min speedup or None)."""
    out = {}
    for proxy, m in sim.items():
        seq = m["seq"]["cycles"]
        smtx = seq / m["smtx"]["cycles"] if "smtx" in m else None
        out[proxy] = (seq / m["hmtx"]["cycles"], smtx)
    return out


def sys_totals(workload, sim):
    """SysStats and TxModeStats summed over every call of a pass."""
    sys, tx = {}, {}
    if workload == "fig8":
        parts = [r for _, _, r in fig8_runs(sim)]
    elif workload.startswith("serve_"):
        parts = list(sim["cells"].values())
    else:
        parts = []  # explore() returns no memory-system counters
    for p in parts:
        for k, v in p["sys"].items():
            sys[k] = sys.get(k, 0) + v
        for k, v in p["tx"].items():
            tx[k] = tx.get(k, 0) + v
    return sys, tx


def ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------
# Reduction.

def correctness(doc):
    """(attempted, failed, messages): every check the driver made plus
    one digest comparison per pass after the first."""
    passes = doc["passes"]
    attempted = sum(p["checks"] for p in passes)
    messages = [m for p in passes for m in p["failures"]]
    first = digest(passes[0]["sim"])
    for i, p in enumerate(passes[1:], start=1):
        attempted += 1
        if digest(p["sim"]) != first:
            messages.append(f"pass {i}: simulated statistics differ "
                            "from pass 0")
    return attempted, len(messages), messages


# Host-speed scaling. A shared host runs at a speed that drifts by tens
# of percent over minutes, with the co-tenants' load. The driver times
# a fixed memory-bound reference kernel around every pass (ref_s), and
# each pass's host times are scaled by NOMINAL_REF_S / ref_s: they read
# as on a host where the kernel takes NOMINAL_REF_S, about its time on
# the 4-CPU Xeon host the benchmark was defined on, when quiet. A
# change to the simulator leaves the kernel's time alone, so it shows
# in full.
NOMINAL_REF_S = 0.006


def speed(p):
    """How many times slower than nominal the host ran in pass p."""
    return p["ref_s"] / NOMINAL_REF_S


def host_rate(passes, key):
    """Median over passes of @p key (accesses or units of a pass) per
    scaled host second of the measured phase."""
    return statistics.median(p[key] / p["run_s"] * speed(p) for p in passes)


def end_to_end(doc):
    """The END_TO_END metrics, from the untraced passes."""
    plain = [p for p in doc["passes"] if not p["traced"]]
    return {
        "host_accesses_per_s": host_rate(plain, "accesses"),
        "host_rss_mb": doc["rss_mb"],
        "setup_s": statistics.median(p["setup_s"] / speed(p)
                                     for p in plain),
    }


def wall_figures(doc):
    """Unscaled wall-clock medians over the untraced passes and the
    reference kernel's time (report only): name -> (value, unit)."""
    plain = [p for p in doc["passes"] if not p["traced"]]
    return {
        "wall_accesses_per_s": (statistics.median(
            p["accesses"] / p["run_s"] for p in plain), "accesses/s"),
        "wall_setup_s": (statistics.median(p["setup_s"] for p in plain),
                         "s"),
        "reference_kernel_s": (statistics.median(p["ref_s"] for p in plain),
                               "s"),
    }


def workload_figures(doc):
    """Workload-specific end-to-end figures (report only): name ->
    (value, unit)."""
    w = doc["workload"]
    plain = [p for p in doc["passes"] if not p["traced"]]
    sim = plain[0]["sim"]
    out = {}
    if w == "fig8":
        sp = fig8_speedups(sim)
        out["sim_speedup_geomean"] = (geomean([h for h, _ in sp.values()]),
                                      "x")
    elif w.startswith("serve_"):
        out["host_requests_per_s"] = (host_rate(plain, "units"), "req/s")
        cells = sim["cells"].values()
        committed = sum(c["serve"]["committed"] for c in cells)
        makespan = sum(c["makespan"] for c in cells)
        out["sim_cycles_per_req"] = (makespan / committed, "cycles")
        lat = sim["latency"]
        for q in ("p50", "p99", "p999"):
            out[f"sim_latency_{q}_cyc"] = (lat[q], "cycles")
        out["sim_latency_samples"] = (lat["count"], "count")
    else:
        out["host_interleavings_per_s"] = (host_rate(plain, "units"),
                                           "interleavings/s")
    attempted, failed, _ = correctness(doc)
    out["failed_ops_share"] = (failed / attempted, "fraction")
    return out


def per_layer(doc):
    """Every per-layer metric (0 where the layer is not on the
    workload's path), from the traced passes."""
    w = doc["workload"]
    traced = [p for p in doc["passes"] if p["traced"]]
    plain = [p for p in doc["passes"] if not p["traced"]]
    sim = traced[0]["sim"]
    m = dict.fromkeys(per_layer_units(), 0.0)

    for base, (span, scale, _) in SPANS.items():
        t = timing([s * scale for p in traced
                    for s in p["spans"].get(span, [])])
        m[base], m[base + ".tail"], m[base + ".n"] = (
            t["median"], t["tail"], t["n"])

    sys, tx = sys_totals(w, sim)
    if sys:
        accesses = sys["loads"] + sys["stores"]
        m["sim.loads"] = sys["loads"]
        m["sim.stores"] = sys["stores"]
        m["sim.l1_hit_ratio"] = ratio(sys["l1Hits"],
                                      sys["l1Hits"] + sys["l1Misses"])
        m["sim.snoop_hits"] = sys["snoopHits"]
        m["sim.mem_fetches"] = sys["memFetches"]
        m["sim.writebacks"] = sys["writebacks"]
        m["sim.net.bus_txns"] = ratio(sys["busTxns"], accesses)
        m["sim.net.dir_lookups"] = ratio(sys["dirLookups"], accesses)
        m["sim.commits"] = sys["commits"]
        m["sim.aborts"] = sys["aborts"]
        m["sim.capacity_aborts"] = sys["capacityAborts"]
        m["sim.vid_resets"] = sys["vidResets"]
        m["sim.commit_processing_cycles"] = sys["commitProcessingCycles"]
        m["sim.spec_spills"] = sys["specSpills"]
        m["sim.spec_refills"] = sys["specRefills"]
        m["tx.fallback_entries"] = tx["fallbackEntries"]
        m["tx.fallback_accesses"] = tx["fallbackAccesses"]
        m["tx.fallback_cycles"] = tx["fallbackCycles"]
        m["tx.retry_aborts"] = tx["retryAborts"]
        m["tx.limited_set_aborts"] = tx["limitedSetAborts"]

    def overhead(key):
        return host_rate(traced, key) - host_rate(plain, key)

    m["trace.overhead.host_accesses_per_s"] = overhead("accesses")
    if w == "fig8":
        runtime = [r for _, model, r in fig8_runs(sim) if model != "smtx"]
        span_s = sum(s for p in traced
                     for k in ("runtime.seq", "runtime.hmtx")
                     for s in p["spans"].get(k, []))
        runtime_accesses = sum(r["sys"]["loads"] + r["sys"]["stores"]
                               for r in runtime) * len(traced)
        m["runtime.host_ns_per_access"] = 1e9 * span_s / runtime_accesses
        m["runtime.instructions"] = sum(r["instructions"] for r in runtime)
        m["runtime.transactions"] = sum(r["transactions"] for r in runtime)
        m["runtime.vid_stall_cycles"] = sum(r["vidStallCycles"]
                                            for r in runtime)
        sp = fig8_speedups(sim)
        m["runtime.sim_speedup_geomean"] = geomean(
            [h for h, _ in sp.values()])
        m["smtx.speedup_geomean"] = geomean(
            [s for _, s in sp.values() if s is not None])
        m["smtx.misspeculations"] = sum(
            r["smtxMisspeculations"] for _, model, r in fig8_runs(sim)
            if model == "smtx")
        idx = {}
        for models in traced[0]["side"].values():
            for s in models.values():
                for k, v in s.items():
                    idx[k] = idx.get(k, 0) + v
        m["sim.index.snoop_filter_ratio"] = ratio(
            idx["snoopsFiltered"],
            idx["snoopsVisited"] + idx["snoopsFiltered"])
        m["sim.index.registry_walks"] = idx["registryWalks"]
        m["sim.index.registry_walk_lines_per_walk"] = ratio(
            idx["registryWalkLines"], idx["registryWalks"])
    elif w.startswith("serve_"):
        cells = sim["cells"]
        serve = [c["serve"] for c in cells.values()]
        for name, c in cells.items():
            m[f"serve.requests_per_s.{name}"] = statistics.median(
                c["serve"]["committed"] / p["side"][name]["hostSeconds"]
                * speed(p) for p in traced)
        for mode, lat in sim["latencyByMode"].items():
            m[f"tx.p999_cyc.{mode}"] = lat["p999"]
        committed = sum(s["committed"] for s in serve)
        m["serve.host_requests_per_s"] = host_rate(traced, "units")
        m["serve.commit_ratio"] = ratio(committed,
                                        sum(s["issued"] for s in serve))
        m["serve.drains"] = sum(s["drains"] for s in serve)
        m["serve.lock_restarts"] = sum(s["lockRestarts"] for s in serve)
        m["serve.non_spec_fallbacks"] = sum(s["nonSpecFallbacks"]
                                            for s in serve)
        m["serve.window_resets"] = sum(s["windowResets"] for s in serve)
        m["serve.idle_cycles"] = sum(s["idleCycles"] for s in serve)
        m["serve.scratch_high_water_bytes"] = max(
            s["scratchHighWater"] for s in traced[0]["side"].values())
        m["serve.sim_cycles_per_req"] = ratio(
            sum(c["makespan"] for c in cells.values()), committed)
        lat = sim["latency"]
        m["serve.sim_latency_p50_cyc"] = lat["p50"]
        m["serve.sim_latency_p99_cyc"] = lat["p99"]
        m["serve.sim_latency_p999_cyc"] = lat["p999"]
        m["serve.latency_samples"] = lat["count"]
        m["trace.overhead.host_requests_per_s"] = overhead("units")
    else:
        explored, pruned = sum(sim["explored"]), sum(sim["pruned"])
        m["check.host_interleavings_per_s"] = host_rate(traced, "units")
        m["check.explored"] = explored
        m["check.pruned_ratio"] = ratio(pruned, pruned + explored)
        m["check.divergences"] = sum(sim["diverged"])
        m["check.env_aborts"] = sum(sim["envAborts"])
        m["trace.overhead.host_interleavings_per_s"] = overhead("units")
    return m
