#!/usr/bin/env bash
# Tier-1 gate: builds and runs the full test suite in the Release
# configuration and again under ASan+UBSan (see CMakePresets.json).
# Run from anywhere:
#
#   ci/check.sh [preset ...]
#
# With no arguments both presets run; pass a subset (e.g. `ci/check.sh
# release`) to iterate faster. Any test failure or sanitizer report
# fails the script.

set -euo pipefail

ROOT=$(cd "$(dirname "$0")/.." && pwd)
PRESETS=("$@")
if [ ${#PRESETS[@]} -eq 0 ]; then
    PRESETS=(release asan-ubsan)
fi

JOBS=$(nproc 2>/dev/null || echo 4)
cd "$ROOT"

# Every temporary file below is made in CI_TMP, which the EXIT trap
# removes however the script ends.
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT

# pin_json <report> <fresh.json> <committed.json> [ignored key ...]
# Flattens both reports to dotted paths (sweep[3].btx.cycles) and
# fails unless every field of the fresh run equals the committed one.
# An ignored key is skipped wherever it occurs, subtree included; only
# host-time fields may be ignored.
pin_json() {
    python3 - "$@" <<'EOF'
import json
import sys

report, cur_path, base_path, *ignored = sys.argv[1:]
with open(cur_path) as f:
    cur = json.load(f)
with open(base_path) as f:
    base = json.load(f)

def flat(node, path=""):
    if isinstance(node, dict):
        for k, v in node.items():
            if k not in ignored:
                yield from flat(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from flat(v, f"{path}[{i}]")
    else:
        yield path, node

cur_f, base_f = dict(flat(cur)), dict(flat(base))
bad = [k for k in sorted(set(cur_f) | set(base_f))
       if cur_f.get(k) != base_f.get(k)]
for k in bad:
    print(f"  {k}: got {cur_f.get(k)} pinned {base_f.get(k)} MISMATCH")
name = base_path.rsplit("/", 1)[-1]
if bad:
    sys.exit(f"FATAL: {report} differs from {name}; simulated "
             "behaviour changed (regenerate it with bench/run_bench.sh "
             "only when the change is meant to alter it)")
skipped = f" (ignoring {', '.join(ignored)})" if ignored else ""
print(f"  {len(cur_f)} fields equal {name}{skipped}")
print(f"{report} pin: ok")
EOF
}

for preset in "${PRESETS[@]}"; do
    echo "==== preset: $preset ===="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$JOBS"
    # Halt on the first error inside the sanitizer runtime rather
    # than limping on with corrupted state.
    UBSAN_OPTIONS=halt_on_error=1 \
    ASAN_OPTIONS=detect_leaks=1 \
        ctest --preset "$preset" -j "$JOBS"
done

# Golden-model differential fuzzing (DESIGN.md §10): a fixed-seed
# batch beyond what the fuzz_smoke ctest already covered, split across
# the commit-mode cell groups — half the budget runs every cell on one
# schedule, a quarter leans on the best-effort pair and a quarter on
# the limited-set pair (disjoint seed ranges, so the focused batches
# are not a subset of the first). Override FUZZ_SCHEDULES for longer
# campaigns (FUZZ_SCHEDULES=0 skips).
FUZZ_SCHEDULES=${FUZZ_SCHEDULES:-2000}
if printf '%s\n' "${PRESETS[@]}" | grep -qx release \
    && [ "$FUZZ_SCHEDULES" -gt 0 ]; then
    FUZZ_BIN="$ROOT/build-release/tests/fuzz/hmtx_fuzz"
    if [ ! -x "$FUZZ_BIN" ]; then
        echo "FATAL: $FUZZ_BIN missing after the release build" >&2
        exit 1
    fi
    FUZZ_HALF=$((FUZZ_SCHEDULES / 2))
    FUZZ_QUARTER=$((FUZZ_SCHEDULES / 4))
    fuzz_batch() { # <label> <cells> <seed0> <schedules>
        echo "==== fuzz ($1 cells): $4 differential schedules ===="
        if ! "$FUZZ_BIN" --schedules "$4" --ops 160 \
            --cells "$2" --seed0 "$3" \
            --corpus-out "$ROOT/tests/fuzz/corpus"; then
            echo "FATAL: differential fuzzing ($1 cells) diverged;" \
                 "shrunken replay written to tests/fuzz/corpus" \
                 "(rerun with hmtx_fuzz --replay <file>" \
                 "--cells $2)" >&2
            exit 1
        fi
    }
    fuzz_batch all all 1 "$FUZZ_HALF"
    [ "$FUZZ_QUARTER" -gt 0 ] && \
        fuzz_batch best-effort btx 500001 "$FUZZ_QUARTER"
    [ "$FUZZ_QUARTER" -gt 0 ] && \
        fuzz_batch limited-set ltd 600001 "$FUZZ_QUARTER"
fi

# Bounded-exhaustive model checking (DESIGN.md §14): enumerate every
# interleaving of MC_BUDGET small programs per batch and replay each
# through the differential matrix, sleep-set-pruned. A
# divergence writes a flattened witness to tests/fuzz/corpus exactly
# like a fuzz divergence. Override MC_BUDGET for longer campaigns
# (MC_BUDGET=0 skips).
MC_BUDGET=${MC_BUDGET:-300}
if printf '%s\n' "${PRESETS[@]}" | grep -qx release \
    && [ "$MC_BUDGET" -gt 0 ]; then
    MC_BIN="$ROOT/build-release/tests/fuzz/hmtx_mc"
    if [ ! -x "$MC_BIN" ]; then
        echo "FATAL: $MC_BIN missing after the release build" >&2
        exit 1
    fi
    MC_LOGS=()
    mc_batch() { # <label> <cells> <seed0> <extra args...>
        local label=$1 cells=$2 seed0=$3 log
        shift 3
        echo "==== model check ($label cells): $MC_BUDGET programs ===="
        log=$(mktemp -p "$CI_TMP")
        MC_LOGS+=("$label=$log")
        if ! "$MC_BIN" --programs "$MC_BUDGET" --cells "$cells" \
            --seed0 "$seed0" --corpus-out "$ROOT/tests/fuzz/corpus" \
            "$@" | tee "$log"; then
            echo "FATAL: bounded-exhaustive model checking ($label" \
                 "cells) diverged; shrunken replay written to" \
                 "tests/fuzz/corpus (rerun with hmtx_fuzz --replay" \
                 "<file> --cells $cells)" >&2
            exit 1
        fi
    }
    mc_batch all all 1 --ops 6
    mc_batch best-effort btx 100001 --ops 7
    mc_batch limited-set ltd 200001 --ops 7
    mc_batch delivery-order all 300001 --ops 5 --delivery 3
    # 3 cores: 3-child branch points, and branch points two ops below
    # their checkpoint, which rebuild their prefix by re-stepping.
    mc_batch three-core all 400001 --cores 3 --ops 8
    # Every batch's summary must equal its line in ci/mc_counts.txt
    # (pinned at the default MC_BUDGET; other budgets are reported,
    # not compared).
    echo "==== model check: summaries vs ci/mc_counts.txt ===="
    python3 - "$ROOT/ci/mc_counts.txt" "$MC_BUDGET" "${MC_LOGS[@]}" <<'EOF'
import re
import sys

pinned_path, budget, *logs = sys.argv[1:]
FIELDS = ("explored", "pruned", "deliveryRuns", "deliveryPointsSeen",
          "envAborts", "budgetExhausted")
pinned = {}
with open(pinned_path) as f:
    for line in f:
        fields = line.split("#", 1)[0].split()
        if fields:
            pinned[fields[0]] = (fields[1], dict(zip(FIELDS, fields[2:])))

bad = False
for arg in logs:
    label, log = arg.split("=", 1)
    with open(log) as f:
        text = f.read()
    got = {}
    for k in FIELDS:
        m = re.search(rf"\b{k}=(\d+)\b", text)
        if m:
            got[k] = m.group(1)
    if label not in pinned:
        print(f"  {label:<15} not pinned MISMATCH")
        bad = True
        continue
    programs, want = pinned[label]
    if programs != budget:
        print(f"  {label:<15} pinned for {programs} programs, ran "
              f"{budget}: NOT COMPARED")
        continue
    shown = " ".join(f"{k}={got.get(k)}" for k in FIELDS)
    if got == want:
        print(f"  {label:<15} {shown} ok")
        continue
    print(f"  {label:<15} {shown} MISMATCH, pinned "
          + " ".join(f"{k}={want.get(k)}" for k in FIELDS))
    bad = True
if bad:
    sys.exit("FATAL: model-checking counts differ from ci/mc_counts.txt; "
             "exploration changed (update the file only when the change "
             "is meant to alter it)")
print("mc counts pin: ok")
EOF
fi

# The model checker restores checkpointed cells in place; under the
# sanitizers a registry pointer left dangling by a restore is a
# use-after-free. Its cells are also kept across programs, each run
# installing delivery choosers that the next program's reset drops
# unread: the second batch explores delivery orders so those kept
# cells carry choosers from one program to the next. Two small batches
# on the asan-ubsan build, their counts reported, not pinned.
if printf '%s\n' "${PRESETS[@]}" | grep -qx asan-ubsan \
    && [ "$MC_BUDGET" -gt 0 ]; then
    MC_ASAN_BIN="$ROOT/build-asan/tests/fuzz/hmtx_mc"
    if [ ! -x "$MC_ASAN_BIN" ]; then
        echo "FATAL: $MC_ASAN_BIN missing after the asan-ubsan build" >&2
        exit 1
    fi
    for mc_args in "--ops 6" "--ops 5 --delivery 3"; do
        echo "==== model check (all cells, asan-ubsan, $mc_args):" \
             "40 programs ===="
        if ! UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=1 \
            "$MC_ASAN_BIN" --programs 40 --cells all --seed0 1 $mc_args \
            --corpus-out "$ROOT/tests/fuzz/corpus"; then
            echo "FATAL: model checking under asan-ubsan failed" >&2
            exit 1
        fi
    done
fi

# Whole-simulation parallelism: host threads run independent schedules
# side by side (hmtx_fuzz --threads), each on the one sequential
# simulation loop. A small batch from a distinct seed range exercises
# that batch mode.
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    echo "==== whole-simulation parallel fuzz batch ===="
    if ! "$ROOT/build-release/tests/fuzz/hmtx_fuzz" --schedules 400 \
        --ops 120 --seed0 900001 --threads 2 \
        --corpus-out "$ROOT/tests/fuzz/corpus"; then
        echo "FATAL: threaded differential fuzzing diverged; shrunken" \
             "replay written to tests/fuzz/corpus" >&2
        exit 1
    fi
fi

# Host-speed benchmark harness (perfbench/, BENCHMARK.json): its unit
# tests, then every workload end to end for a short window on the
# default seed and on the held-out seed, and once more traced on the
# default seed. run.py exits non-zero on a
# wrong output, a sim_digest that does not repeat across passes, or a
# layer-split violation. Each run's sim_digest must also equal the one
# pinned in ci/sim_digests.txt (a change that deliberately alters
# simulated behaviour updates that file in the same commit). No timing
# is gated here.
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    echo "==== perfbench: harness unit tests ===="
    if ! PYTHONDONTWRITEBYTECODE=1 \
        python3 -m unittest discover -s perfbench/tests; then
        echo "FATAL: perfbench unit tests failed" >&2
        exit 1
    fi
    PB_LOGS=()
    for seed in 1 7919; do
        echo "==== perfbench: all workloads, seed $seed, 2 s each ===="
        PB_LOG=$(mktemp -p "$CI_TMP")
        PB_LOGS+=("$PB_LOG")
        if ! CARGO_TARGET_DIR="$ROOT/build-release/perfbench" \
            PYTHONDONTWRITEBYTECODE=1 \
            python3 perfbench/run.py --seconds 2 --trace 0 \
                --seed "$seed" | tee "$PB_LOG"; then
            echo "FATAL: perfbench run (seed $seed) reported a wrong" \
                 "output or failed to run" >&2
            exit 1
        fi
    done
    echo "==== perfbench: sim_digest vs ci/sim_digests.txt ===="
    python3 - "$ROOT/ci/sim_digests.txt" "${PB_LOGS[@]}" <<'EOF'
import re
import sys

pinned_path, *logs = sys.argv[1:]
pinned = {}
with open(pinned_path) as f:
    for line in f:
        fields = line.split("#", 1)[0].split()
        if fields:
            pinned[(fields[0], fields[1])] = fields[2]

got = {}
for log in logs:
    key = None
    with open(log) as f:
        for line in f:
            m = re.match(r"== (\S+): seed (\d+),", line)
            if m:
                key = m.groups()
                continue
            m = re.match(r"\s+sim_digest\s+(\S+)", line)
            if m and key:
                got[key] = m.group(1)

bad = False
for key in sorted(set(pinned) | set(got)):
    want, have = pinned.get(key), got.get(key)
    verdict = "ok" if want == have else "MISMATCH"
    print(f"  {key[0]:<20} seed {key[1]:<5} pinned {want} got {have} "
          f"{verdict}")
    bad |= want != have
if bad:
    sys.exit("FATAL: sim_digest differs from ci/sim_digests.txt; "
             "simulated behaviour changed (update the file only when "
             "the change is meant to alter it)")
print("sim_digest pin: ok")
EOF
    # The runs above are untraced; one traced run exercises the
    # layer-split checks and spans (serve.setup_s among them) that
    # only a traced pass reports.
    echo "==== perfbench: all workloads traced, seed 1, 1 s each ===="
    if ! CARGO_TARGET_DIR="$ROOT/build-release/perfbench" \
        PYTHONDONTWRITEBYTECODE=1 \
        python3 perfbench/run.py --seconds 1 --trace 1 --seed 1; then
        echo "FATAL: traced perfbench run reported a wrong output or" \
             "failed to run" >&2
        exit 1
    fi
fi

# The twelve benches that run the loop executors (Runner,
# SmtxRunner) print only simulated numbers, so a fresh run must
# reproduce ci/loop_bench_stdout.txt byte for byte: every schedule
# (DOACROSS, SMTX-max and explicit worker counts included) and Table
# 3's power figures. The file is this loop's output; a change meant to
# alter simulated behaviour regenerates it the same way.
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    echo "==== bench: loop-executor stdout vs ci/loop_bench_stdout.txt ===="
    CI_LOOP_OUT=$(mktemp -p "$CI_TMP")
    for b in fig1_schedules fig2_smtx_rwset fig8_speedup fig9_rwset_size \
        table1_stats table3_power ablation_sla ablation_lazy_commit \
        ablation_vid_bits ablation_read_copy ext_unbounded_sets \
        ext_paradigm_comparison; do
        echo "==== $b ===="
        (cd "$CI_TMP" && "$ROOT/build-release/bench/$b") || echo "EXIT $?"
    done > "$CI_LOOP_OUT"
    if ! diff -u "$ROOT/ci/loop_bench_stdout.txt" "$CI_LOOP_OUT"; then
        echo "FATAL: loop-executor bench output differs from" \
             "ci/loop_bench_stdout.txt; simulated behaviour changed" \
             "(update the file only when the change is meant to alter" \
             "it)" >&2
        exit 1
    fi
    echo "loop bench stdout pin: ok"
fi

# Bench smoke + hot-path regression gate (Release timings only; the
# sanitizer build's numbers are meaningless). Compares the indexed
# Table-2-geometry bulk ops against the committed baseline and fails
# on a >25% slowdown.
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    if [ ! -f "$ROOT/BENCH_hotpath.json" ]; then
        # A silently skipped gate looks exactly like a passing one in
        # CI logs; a missing baseline must be loud.
        echo "FATAL: BENCH_hotpath.json baseline is missing;" \
             "regenerate it with bench/run_bench.sh (or" \
             "restore the committed copy) — refusing to skip the" \
             "hot-path regression gate" >&2
        exit 1
    fi
    # Every field of the crossover and scaling reports is simulated,
    # so a fresh run must reproduce the committed file exactly.
    echo "==== bench: commit-mode crossover smoke + pin ===="
    cmake --build --preset release -j "$JOBS" \
        --target ext_mode_crossover ext_directory_scaling
    CI_MODES_JSON=$(mktemp -p "$CI_TMP")
    if ! "$ROOT/build-release/bench/ext_mode_crossover" \
        "$CI_MODES_JSON" > /dev/null; then
        echo "FATAL: ext_mode_crossover found no HMTX/best-effort" \
             "crossover, failed to converge, or left a memory image" \
             "its committed bodies do not explain" >&2
        exit 1
    fi
    pin_json ext_mode_crossover "$CI_MODES_JSON" "$ROOT/BENCH_modes.json"

    echo "==== bench: directory-scaling smoke + pin ===="
    CI_SCALING_JSON=$(mktemp -p "$CI_TMP")
    if ! "$ROOT/build-release/bench/ext_directory_scaling" \
        "$CI_SCALING_JSON" > /dev/null; then
        echo "FATAL: ext_directory_scaling failed a checksum or the" \
             "directory fabric lost to the bus at 8+ cores" >&2
        exit 1
    fi
    pin_json ext_directory_scaling "$CI_SCALING_JSON" \
        "$ROOT/BENCH_scaling.json"

    echo "==== bench: hot-path regression gate ===="
    cmake --build --preset release -j "$JOBS" --target micro_hotpath
    if ! "$ROOT/build-release/bench/micro_hotpath" --smoke; then
        echo "FATAL: micro_hotpath --smoke failed to run" >&2
        exit 1
    fi
    CI_MICRO_JSON=$(mktemp -p "$CI_TMP")
    if ! "$ROOT/build-release/bench/micro_hotpath" \
        --benchmark_filter='BM_(EagerCommit|AbortAll)/1/0' \
        --benchmark_out="$CI_MICRO_JSON" \
        --benchmark_out_format=json --benchmark_min_time=0.2; then
        echo "FATAL: micro_hotpath benchmark run failed" >&2
        exit 1
    fi
    python3 - "$CI_MICRO_JSON" "$ROOT/BENCH_hotpath.json" <<'EOF'
import json
import sys

cur_path, base_path = sys.argv[1:]
with open(cur_path) as f:
    cur = json.load(f)
with open(base_path) as f:
    base = json.load(f)

if cur.get("context", {}).get("hmtx_build_type") != "Release":
    sys.exit("FATAL: regression gate ran on a non-Release build")

def times(report):
    return {b["name"]: (b["real_time"], b.get("time_unit", "ns"))
            for b in report.get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"}

cur_t = times(cur)
base_t = times(base.get("micro_hotpath", {}))
failed = False
for name in ("BM_EagerCommit/1/0", "BM_AbortAll/1/0"):
    c, b = cur_t.get(name), base_t.get(name)
    if c is None or b is None:
        sys.exit(f"FATAL: {name} missing from current run or baseline")
    if c[1] != b[1]:
        sys.exit(f"FATAL: {name} time units differ "
                 f"({c[1]} vs {b[1]})")
    ratio = c[0] / b[0]
    verdict = "FAIL" if ratio > 1.25 else "ok"
    print(f"  {name}: {c[0]:.1f}{c[1]} vs baseline {b[0]:.1f}{b[1]} "
          f"({ratio:.2f}x) {verdict}")
    if ratio > 1.25:
        failed = True
if failed:
    sys.exit("FATAL: hot-path benchmarks regressed >25% vs "
             "BENCH_hotpath.json")
print("bench regression gate: ok")
EOF
fi

# Serving throughput floor (DESIGN.md section 15): one streaming gate
# cell of the KV/OLTP serving engine (60k requests, lazy/snoop-bus;
# the run itself verifies the oracle and the attempt accounting, so
# this doubles as the serving smoke). Host requests/sec must stay
# within 25% of the committed BENCH_serving.json profile.
if printf '%s\n' "${PRESETS[@]}" | grep -qx release; then
    if [ ! -f "$ROOT/BENCH_serving.json" ]; then
        echo "FATAL: BENCH_serving.json baseline is missing;" \
             "regenerate it with bench/run_bench.sh (or restore the" \
             "committed copy) — refusing to skip the serving" \
             "throughput gate" >&2
        exit 1
    fi
    # Every simulated field of a full sweep must equal the committed
    # BENCH_serving.json: all but the host-time profile block and each
    # cell's host_requests_per_sec. HMTX_* variables reshape the sweep,
    # so the run clears them.
    echo "==== bench: serving sweep pin ===="
    cmake --build --preset release -j "$JOBS" --target ext_kv_serving
    CI_SERVE_JSON=$(mktemp -p "$CI_TMP")
    CI_SERVE_ENV=()
    for v in $(compgen -e | grep '^HMTX_' || true); do
        CI_SERVE_ENV+=(-u "$v")
    done
    if ! env "${CI_SERVE_ENV[@]}" \
        "$ROOT/build-release/bench/ext_kv_serving" \
        "$CI_SERVE_JSON" > /dev/null; then
        echo "FATAL: ext_kv_serving sweep failed (oracle, accounting," \
             "or no p999 divergence)" >&2
        exit 1
    fi
    pin_json ext_kv_serving "$CI_SERVE_JSON" "$ROOT/BENCH_serving.json" \
        host_requests_per_sec profile

    echo "==== bench: serving smoke + throughput floor ===="
    CI_SERVE_LINE=$("$ROOT/build-release/bench/ext_kv_serving" --gate)
    echo "  $CI_SERVE_LINE"
    python3 - "$ROOT/BENCH_serving.json" "${CI_SERVE_LINE##* }" <<'EOF'
import json
import sys

base_path, rate = sys.argv[1:]
cur = float(rate)
with open(base_path) as f:
    base = json.load(f)
ref = float(base["profile"]["streaming_requests_per_sec"])
ratio = cur / ref
print(f"  serving gate cell: {cur:.0f} req/s vs baseline "
      f"{ref:.0f} req/s ({ratio:.2f}x)")
if cur < ref / 1.25:
    sys.exit("FATAL: serving engine host throughput regressed >25% "
             "vs BENCH_serving.json")
print("serving throughput gate: ok")
EOF
fi

echo "All presets green."
