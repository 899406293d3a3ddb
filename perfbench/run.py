#!/usr/bin/env python3
"""Host-speed benchmark of the HMTX simulator.

Builds the driver (perfbench/CMakeLists.txt, Release) into the build
directory, runs one workload for --seconds of host time, checks every
output, prints a report and, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}. The metrics
are the end-to-end ones with --trace 0 and the per-layer ones with
--trace 1.

    python3 perfbench/run.py --workload fig8 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # all four workloads in turn

Run from the repository root. The build directory is $CARGO_TARGET_DIR
if set, else .bench_build. Exit status: 0 when every check passed,
1 when a check failed, 2 when the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import metrics

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEADLINE_S = 170  # host seconds one workload's driver may take


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configures and builds the driver; returns the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources under {ROOT / 'src'}")
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    log = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(build_dir), "--target",
                     "hmtx_perfbench", "-j", jobs]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed: {' '.join(cmd)}")
    return build_dir / "hmtx_perfbench"


def run_driver(binary, workload, seed, seconds, trace, deadline):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"{workload}: driver overran the deadline")
    if res.returncode != 0:
        fail(f"{workload}: driver exited with status {res.returncode}")
    return json.loads(res.stdout)


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(doc, trace):
    """Prints the human-readable report of one workload run."""
    w = doc["workload"]
    fp = doc["fingerprint"]
    passes = doc["passes"]
    print(f"== {w}: seed {doc['seed']}, {doc['seconds']:g} s, "
          f"{sum(not p['traced'] for p in passes)} untraced + "
          f"{sum(p['traced'] for p in passes)} traced passes")
    print(f"host: {fp['cpu']}, nproc {fp['nproc']}, {fp['compiler']}, "
          f"{fp['build_type']}")
    e2e = metrics.end_to_end(doc)
    for name, unit in metrics.END_TO_END.items():
        print(f"  {name:<28} {fmt(e2e[name]):>14} {unit}")
    figures = {**metrics.workload_figures(doc), **metrics.wall_figures(doc)}
    for name, (value, unit) in figures.items():
        print(f"  {name:<28} {fmt(value):>14} {unit}")
    print(f"  {'sim_digest':<28} {metrics.digest(passes[0]['sim']):>14}")
    if w == "fig8":
        print("  Figure 8 speedups vs the paper (difference from the "
              "paper's gem5 results; informational, not gated):")
        print(f"    {'proxy':<11} {'HMTX':>6} {'paper':>6} {'diff':>6}"
              f" | {'SMTX-min':>8} {'paper':>6} {'diff':>6}")
        for proxy, (h, s) in metrics.fig8_speedups(passes[0]["sim"]).items():
            ref = doc["paper"][proxy]
            line = (f"    {proxy:<11} {h:6.2f} {ref['hmtx']:6.2f} "
                    f"{h - ref['hmtx']:+6.2f} | ")
            line += (f"{s:8.2f} {ref['smtx']:6.2f} {s - ref['smtx']:+6.2f}"
                     if s is not None else f"{'-':>8} {'-':>6} {'-':>6}")
            print(line)
    if trace:
        units = metrics.per_layer_units()
        layer = metrics.per_layer(doc)
        print("  per layer (traced passes):")
        for name, unit in units.items():
            print(f"    {name:<44} {fmt(layer[name]):>14} {unit}")
        tails = {base: metrics.timing(
            [s for p in passes if p["traced"]
             for s in p["spans"].get(span, [])])["q"]
            for base, (span, _, _) in metrics.SPANS.items()}
        print("  span tails: " + ", ".join(
            f"{b}.tail=p{100 * q:g}" for b, q in tails.items()))


def result(doc, trace):
    attempted, failed, messages = metrics.correctness(doc)
    for m in messages:
        print(f"FAIL: {doc['workload']}: {m}")
    values = metrics.per_layer(doc) if trace else metrics.end_to_end(doc)
    units = metrics.per_layer_units() if trace else metrics.END_TO_END
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": values[k], "unit": u}
                        for k, u in units.items()}}


def predictions(docs):
    """Cross-workload checks of the predicted layer split."""
    def sys_of(w):
        return metrics.sys_totals(w, docs[w]["passes"][0]["sim"])

    out = []
    if "fig8" in docs:
        sys, tx = sys_of("fig8")
        out.append(("fig8 has no spills, aborts or fallback entries",
                    sys["specSpills"] + sys["aborts"]
                    + tx["fallbackEntries"] == 0))
    if "serve_uniform_read" in docs and "serve_skewed_write" in docs:
        per_req = {}
        for w in ("serve_uniform_read", "serve_skewed_write"):
            cells = docs[w]["passes"][0]["sim"]["cells"].values()
            per_req[w] = (sum(c["sys"]["aborts"] for c in cells)
                          / sum(c["serve"]["committed"] for c in cells))
        out.append((f"aborts/request skewed {per_req['serve_skewed_write']:.4f}"
                    f" >= 10x uniform {per_req['serve_uniform_read']:.4f}",
                    per_req["serve_skewed_write"]
                    >= 10 * per_req["serve_uniform_read"]))
    if all(docs[w]["trace"] for w in docs):
        owner = {"runtime.": {"fig8"}, "smtx.": {"fig8"},
                 "check.": {"mc_check"},
                 "serve.": {"serve_uniform_read", "serve_skewed_write"}}
        for prefix, home in owner.items():
            seen = {w for w, d in docs.items()
                    for p in d["passes"] for k in p["spans"]
                    if k.startswith(prefix)}
            out.append((f"{prefix}* spans only on {sorted(home)}",
                        seen <= home))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + metrics.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    workloads = (metrics.WORKLOADS if args.workload == "all"
                 else (args.workload,))
    docs, results = {}, {}
    for w in workloads:
        docs[w] = run_driver(binary, w, args.seed, args.seconds,
                             args.trace, time.monotonic() + DEADLINE_S)
        report(docs[w], args.trace)
        results[w] = result(docs[w], args.trace)

    if len(workloads) == 1:
        final = results[workloads[0]]
    else:
        for what, ok in predictions(docs):
            print(f"prediction {'holds' if ok else 'MISSED'}: {what}")
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
