#!/usr/bin/env bash
#
# Performance trajectory: time the fixed-seed Figure 2 sweep single-
# threaded and write BENCH_sim.json (wall-clock, traces/sec, simulated
# cycles/sec) next to the repo root, so hot-path changes have a
# recorded headline number to move against the checked-in baseline.
#
# The workload is deliberately pinned: fig2_cpi, ZBP_JOBS=1,
# ZBP_LEN_SCALE=0.25 — the same sweep the pre-optimisation baseline in
# BENCH_sim.json was measured with.
#
# Usage:
#   scripts/perf.sh            # run, print, and write BENCH_sim.json
#
# Environment:
#   ZBP_PERF_BUILD_DIR    build tree (default: <repo>/build)
#   ZBP_PERF_SCALE        trace length scale (default: 0.25 — changing
#                         it invalidates the baseline comparison)
#   ZBP_PERF_OUT          output path (default: <repo>/BENCH_sim.json)
#   ZBP_PERF_SAMPLE_SCALE length scale for the sampled-simulation row
#                         (default: 25 — the acceptance point: sampled
#                         wall must stay within 2x the fig2 sweep above)
#   ZBP_PERF_SAMPLE_JOBS  worker count for the sampled row (default: 8;
#                         unlike the pinned sweeps this row is parallel)

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${ZBP_PERF_BUILD_DIR:-$repo_root/build}"
scale="${ZBP_PERF_SCALE:-0.25}"
out="${ZBP_PERF_OUT:-$repo_root/BENCH_sim.json}"

bench="$build_dir/bench/fig2_cpi"
cmp_bench="$build_dir/bench/cmp_sharing"
sample_bench="$build_dir/bench/sampled_sim"
for b in "$bench" "$cmp_bench" "$sample_bench"; do
    if [[ ! -x "$b" ]]; then
        echo "perf: missing $b (build the repo first)" >&2
        exit 1
    fi
done

results="$(mktemp /tmp/zbp_perf_XXXXXX.jsonl)"
cache_dir="$(mktemp -d /tmp/zbp_perf_cache_XXXXXX)"
trap 'rm -rf "$results" "$cache_dir"' EXIT
rm -f "$results"

echo "== perf: fig2_cpi, ZBP_JOBS=1, ZBP_LEN_SCALE=$scale =="
BENCH="$bench" CMP_BENCH="$cmp_bench" SAMPLE_BENCH="$sample_bench" \
    RESULTS="$results" SCALE="$scale" OUT="$out" CACHE_DIR="$cache_dir" \
    SAMPLE_SCALE="${ZBP_PERF_SAMPLE_SCALE:-25}" \
    SAMPLE_JOBS="${ZBP_PERF_SAMPLE_JOBS:-8}" \
    python3 - <<'EOF'
import json
import os
import subprocess
import time

bench = os.environ["BENCH"]
cmp_bench = os.environ["CMP_BENCH"]
sample_bench = os.environ["SAMPLE_BENCH"]
sample_scale = os.environ["SAMPLE_SCALE"]
sample_jobs = os.environ["SAMPLE_JOBS"]
results = os.environ["RESULTS"]
scale = os.environ["SCALE"]
out = os.environ["OUT"]
cache_dir = os.environ["CACHE_DIR"]


def sweep(jsonl, prog=None, **extra_env):
    """Run a pinned single-thread sweep once; return (wall, records).
    CMP sharing records (cmp=true) are ok=false by design and pass
    through; any other ok=false record is a failed job."""
    if os.path.exists(jsonl):
        os.unlink(jsonl)
    env = dict(os.environ, ZBP_JOBS="1", ZBP_LEN_SCALE=scale,
               ZBP_RESULTS_JSONL=jsonl, **extra_env)
    t0 = time.monotonic()
    subprocess.run([prog or bench], check=True, env=env,
                   stdout=subprocess.DEVNULL)
    wall = time.monotonic() - t0
    recs = []
    with open(jsonl) as f:
        for line in f:
            rec = json.loads(line)
            if not rec.get("ok", False) and not rec.get("cmp", False):
                raise SystemExit(f"perf: failed job in sweep: {line}")
            recs.append(rec)
    return wall, recs


# Headline row: the default (fused) path, cold trace cache primed on
# this first run.
wall, records = sweep(results, ZBP_TRACE_CACHE=cache_dir)

jobs = len(records)
cycles = sum(r["cycles"] for r in records)
insts = sum(r["instructions"] for r in records)
sim_seconds = sum(r["seconds"] for r in records)

current = {
    "wall_seconds": round(wall, 3),
    "sim_seconds": round(sim_seconds, 3),
    "jobs": jobs,
    "simulated_cycles": cycles,
    "simulated_instructions": insts,
    "traces_per_second": round(jobs / wall, 3),
    "cycles_per_second": round(cycles / wall, 1),
}

# Fused-sweep row: the warm-cache gang path.  Every trace streams from
# memory once per gang and its other configurations read the same
# 2 MiB chunk from cache, so DRAM-stream amplification is 1.
fused_wall, fused_recs = sweep(results, ZBP_TRACE_CACHE=cache_dir)

trace_names = {r["trace"] for r in fused_recs}
fused_sweep = {
    "wall_seconds": round(fused_wall, 3),
    "traces_per_second": round(len(trace_names) / fused_wall, 3),
    "dram_stream_amplification": 1.0,
    "jobs": len(fused_recs),
}

# CMP row: the pinned 4-core / 4-bank point of the sharing sweep
# (homogeneous + heterogeneous mixes), single-threaded, warm trace
# cache.  Wall-clock tracks the lockstep-stepping overhead; the
# conflict fractions track the sharing model itself — a change to
# arbitration or banking moves them even when wall-clock holds.
cmp_wall, cmp_recs = sweep(results, prog=cmp_bench,
                           ZBP_TRACE_CACHE=cache_dir,
                           ZBP_CMP_CORES="4", ZBP_BTB2_BANKS="4")
cmp_core_recs = [r for r in cmp_recs if not r.get("cmp", False)]
cmp_share = {r["config"]: r for r in cmp_recs if r.get("cmp", False)}
cmp_cycles = sum(r["cycles"] for r in cmp_core_recs)
cmp = {
    "wall_seconds": round(cmp_wall, 3),
    "cores": 4,
    "banks": 4,
    "core_runs": len(cmp_core_recs),
    "simulated_cycles": cmp_cycles,
    "cycles_per_second": round(cmp_cycles / cmp_wall, 1),
    "conflict_fraction_homog": cmp_share[
        "cmp-homog-c4-b4#shared"]["conflictFraction"],
    "conflict_fraction_hetero": cmp_share[
        "cmp-hetero-c4-b4#shared"]["conflictFraction"],
}

# Sampled-simulation row: one 25x-long trace (ZBP_PERF_SAMPLE_SCALE),
# functional warm-up fan-out plus parallel detailed intervals, against
# the monolithic exact reference the bench runs alongside.  The
# acceptance window is relative to the headline sweep: a sampled run
# over a 100x-class trace must fit in 2x the fig2-0.25 wall clock,
# with stitched CPI within 2% of exact.  (No trace cache: a 25x trace
# image would be GB-scale; in-memory generation is cheaper.)
env = dict(os.environ, ZBP_JOBS=sample_jobs, ZBP_LEN_SCALE=sample_scale)
t0 = time.monotonic()
proc = subprocess.run([sample_bench], check=True, env=env,
                      stdout=subprocess.PIPE, text=True)
sample_leg_wall = time.monotonic() - t0
summary = None
for line in proc.stdout.splitlines():
    if line.startswith("sampled-summary: "):
        summary = json.loads(line[len("sampled-summary: "):])
if summary is None:
    raise SystemExit("perf: sampled_sim printed no sampled-summary line")

wall_budget = 2 * current["wall_seconds"]
sampled = {
    "trace": summary["trace"],
    "len_scale": float(sample_scale),
    "jobs": int(sample_jobs),
    "instructions": summary["instructions"],
    "mode": summary["mode"],
    "intervals": summary["intervals"],
    "coverage": summary["coverage"],
    "functional_insts_per_second": summary["warmup_insts_per_sec"],
    "functional_over_detailed": summary["functional_over_detailed"],
    "interval_insts_per_second": summary["interval_insts_per_sec"],
    "sampled_wall_seconds": summary["sampled_wall_seconds"],
    "exact_wall_seconds": summary["exact_wall_seconds"],
    "speedup_vs_exact": summary["speedup_vs_exact"],
    "exact_cpi": summary["exact_cpi"],
    "sampled_cpi": summary["sampled_cpi"],
    "cpi_error_pct": summary["cpi_error_pct"],
    "cpi_error_bar": summary["cpi_error_bar"],
    "wall_budget_seconds": round(wall_budget, 3),
    "within_wall_budget": summary["sampled_wall_seconds"] <= wall_budget,
    "cpi_within_2pct": abs(summary["cpi_error_pct"]) <= 2.0,
}

# Single-thread baseline measured on the pre-optimisation tree
# (per-cycle loop, heap-allocating hit lists, unconditional stats
# text), same machine class, same pinned workload.
baseline = {
    "wall_seconds": 9.686,
    "sim_seconds": 8.326,
    "jobs": 39,
    "simulated_cycles": 36289068,
    "simulated_instructions": 18686757,
    "traces_per_second": 4.026,
    "cycles_per_second": 3746549.0,
}

doc = {
    "benchmark": "fig2_cpi single-thread sweep",
    "workload": {"bench": "fig2_cpi", "jobs": 1, "len_scale": scale},
    "baseline_pre_optimization": baseline,
    "current": current,
    "speedup_vs_baseline": round(
        baseline["wall_seconds"] / current["wall_seconds"], 2),
    "fused_sweep": fused_sweep,
    "cmp": cmp,
    "sampled": sampled,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")

print(f"perf: wall {current['wall_seconds']}s, "
      f"{current['traces_per_second']} traces/s, "
      f"{current['cycles_per_second']:.3g} simulated cycles/s")
print(f"perf: {doc['speedup_vs_baseline']}x vs pre-optimization "
      f"baseline ({baseline['wall_seconds']}s)")
print(f"perf: fused sweep {fused_sweep['wall_seconds']}s (warm cache), "
      f"{fused_sweep['traces_per_second']} traces/s")
print(f"perf: cmp 4-core/4-bank {cmp['wall_seconds']}s, "
      f"{cmp['cycles_per_second']:.3g} simulated cycles/s, conflict "
      f"fraction homog {cmp['conflict_fraction_homog']:.4f} / hetero "
      f"{cmp['conflict_fraction_hetero']:.4f}")
print(f"perf: sampled {sampled['trace']}@{sample_scale}x "
      f"({sampled['instructions']} insts) {sampled['mode']} "
      f"{sampled['sampled_wall_seconds']}s vs exact "
      f"{sampled['exact_wall_seconds']}s "
      f"({sampled['speedup_vs_exact']}x), CPI error "
      f"{sampled['cpi_error_pct']:+.3f}% "
      f"[budget {sampled['wall_budget_seconds']}s: "
      f"{'ok' if sampled['within_wall_budget'] else 'OVER'}, "
      f"2% bound: "
      f"{'ok' if sampled['cpi_within_2pct'] else 'EXCEEDED'}]")
print(f"perf: wrote {out}")
EOF
