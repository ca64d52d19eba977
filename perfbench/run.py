#!/usr/bin/env python3
"""Host-speed-normalised benchmark of the zbp simulator.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig2-serial --seed 1 --seconds 20 --trace 0

It builds perfbench/harness.cc against the checkout's src/ tree (CMake,
into a per-checkout directory under $CARGO_TARGET_DIR or .bench_build),
runs the harness for one
workload, derives the metrics from its raw samples and prints them as
the last line of standard output:

    {"correct": true, "attempted": 39, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones.  A diagnostics line (counter
digest, raw host time, probe spread, worker count) precedes the result.
See perfbench/README.md for what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

WORKLOADS = ("fig2-serial", "sampled-fast", "cmp-shared")
# The whole run must end well inside the 180 s a run may take.
HARNESS_TIMEOUT_S = 170

END_TO_END = [
    ("ns_per_inst", "ns"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# Layers whose main-thread self time the traced run reports.
SELF_LAYERS = ["trace", "cache", "cpu", "sim", "sample", "ckpt", "cmp",
               "bench"]

PER_LAYER = [
    ("workload.gen_ns_per_inst", "ns"),
    ("trace.index_ns_per_inst", "ns"),
    ("cache.dmiss_ns_per_inst", "ns"),
    ("cpu.cfg1_ns_per_inst", "ns"),
    ("cpu.cfg2_ns_per_inst", "ns"),
    ("cpu.cfg3_ns_per_inst", "ns"),
    ("cpu.ns_per_sim_cycle", "ns"),
    ("sim.gang_over_serial", "ratio"),
    ("sample.functional_ns_per_inst", "ns"),
    ("sample.detailed_ns_per_inst", "ns"),
    ("sample.functional_speedup", "ratio"),
    ("ckpt.save_s", "s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.snapshot_mb", "MB"),
    ("runner.parallel_eff", "ratio"),
    ("runner.records", "count"),
    ("runner.workers", "count"),
    ("cmp.window_ns_per_inst", "ns"),
    ("preload.arb_conflict_frac", "ratio"),
    ("preload.arb_wait_cycles", "count"),
    ("cache.l2i_miss_frac", "ratio"),
    ("model.instructions", "count"),
    ("model.cycles", "count"),
    ("model.btb1_miss_reports", "count"),
    ("model.btb2_row_reads", "count"),
    ("model.btb2_transfers", "count"),
    ("model.btb2_full_searches", "count"),
    ("model.btb2_partial_searches", "count"),
    ("model.icache_misses", "count"),
] + [("self.%s_s" % layer, "s") for layer in SELF_LAYERS] + [
    ("host.wall_s", "s"),
    ("host.probe_s", "s"),
    ("host.probe_iqr_pct", "%"),
    ("host.nproc", "count"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.span_coverage_pct", "%"),
]

COUNT_METRICS = {
    "model.instructions": "instructions",
    "model.cycles": "cycles",
    "model.btb1_miss_reports": "btb1MissReports",
    "model.btb2_row_reads": "btb2RowReads",
    "model.btb2_transfers": "btb2Transfers",
    "model.btb2_full_searches": "btb2FullSearches",
    "model.btb2_partial_searches": "btb2PartialSearches",
    "model.icache_misses": "icacheMisses",
}


# ---- normalisation ------------------------------------------------------

KERNELS = ("branchy", "indirect", "table")

# P_ref: seconds each probe kernel takes on the reference host (4 vCPUs,
# steady period), for the kernel sizes fixed in harness.cc.  Changing
# this rescales every normalised time: a new reference is a new
# benchmark, not a faster simulator.
P_REF = {"branchy": 0.00297, "indirect": 0.00268, "table": 0.00395}


def probe_slowness(kernel_seconds, ref_s):
    """How slow the host ran one probe against the reference host: the
    mean over the kernels of measured time / reference time."""
    return sum(t / ref_s[k] for t, k in zip(kernel_seconds, KERNELS)) / \
        len(KERNELS)


def resolve(raw, ref_s):
    """Replace the probe indices in every sample of @raw with the
    slowness of those probes: samples become (wall, before, after)."""
    slow = [probe_slowness(p, ref_s) for p in raw["probes"]]

    def conv(samples):
        return [(w, slow[i0], slow[i1]) for w, i0, i1 in samples]

    raw["setup"] = [conv(rep) for rep in raw["setup"]]
    for u in raw["units"]:
        u["samples"] = conv(u["samples"])
        u["traced"] = conv(u["traced"])
    raw["slowness"] = slow
    return raw


def normalise(wall, p0, p1):
    """Wall time of one unit rescaled to the reference host speed: the
    unit ran at the mean slowness of the probes on either side of it."""
    return wall / ((p0 + p1) / 2.0)


def unit_median(samples):
    """Median normalised time over the repeats of one unit."""
    return statistics.median(normalise(w, a, b) for w, a, b in samples)


def ns_per_inst(units):
    """Sum over units of the per-unit median normalised time, per
    simulated instruction of one pass, in ns."""
    total = sum(unit_median(u["samples"]) for u in units)
    insts = sum(u["insts"] for u in units)
    return total / insts * 1e9


def raw_pass_seconds(units):
    """The raw counterpart of ns_per_inst's numerator: the sum of the
    per-unit median wall times, not normalised."""
    return sum(statistics.median(w for w, _, _ in u["samples"])
               for u in units)


def setup_seconds(reps):
    """Median over set-up repeats of the normalised set-up time."""
    return statistics.median(
        sum(normalise(w, a, b) for w, a, b in rep) for rep in reps)


def iqr_pct(values):
    """Inter-quartile range as a percentage of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values) * 100.0


# ---- traced run ---------------------------------------------------------

def span_table(events, traced_units):
    """Normalised duration and self time of every span.

    @events are the trace file's complete-duration events, all from the
    harness's main thread.  Each span is rescaled by the probe pair of
    the timed unit it ran under (the enclosing bench/unit span).  Self
    time is the span's duration minus that of its children.  Spans
    outside any unit (set-up) are left out.
    """
    by_id = {e["args"]["id"]: e for e in events}
    child_dur = {}
    for e in events:
        pid = e["args"]["parent"]
        child_dur[pid] = child_dur.get(pid, 0.0) + e["dur"]

    def unit_of(e):
        while e is not None:
            if e["cat"] == "bench" and e["name"] == "unit":
                return e
            e = by_id.get(e["args"]["parent"])
        return None

    table = []
    for e in events:
        unit = unit_of(e)
        if unit is None:
            continue
        u = int(unit["args"]["unit"])
        k = int(unit["args"]["pass"])
        _, p0, p1 = traced_units[u]["traced"][k]
        slowness = (p0 + p1) / 2.0
        self_us = e["dur"] - child_dur.get(e["args"]["id"], 0.0)
        table.append({
            "kind": e["cat"] + "." + e["name"],
            "layer": e["cat"],
            "unit": u,
            "slowness": slowness,
            "norm_s": e["dur"] * 1e-6 / slowness,
            "self_s": self_us * 1e-6 / slowness,
            "self_us": self_us,
            "args": e["args"],
        })
    return table


def _sum(table, kind, field="norm_s"):
    """Sum of a span field (or span argument) over the spans of @kind."""
    return sum(r[field] if field in r else r["args"].get(field, 0.0)
               for r in table if r["kind"] == kind)


def _ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


def per_layer_metrics(raw, events):
    units = raw["units"]
    t = span_table(events, units)
    passes = max(raw["traced_passes"], 1)
    m = {}

    gen = setup_seconds(raw["setup"])
    m["workload.gen_ns_per_inst"] = _ratio(gen, raw["setup_insts"], 1e9)
    for kind in ("trace.index", "cache.dmiss", "cpu.cfg1", "cpu.cfg2",
                 "cpu.cfg3", "cmp.window"):
        m[kind + "_ns_per_inst"] = _ratio(_sum(t, kind),
                                          _sum(t, kind, "insts"), 1e9)
    cpu_s = sum(_sum(t, "cpu.cfg%d" % i) for i in (1, 2, 3))
    cpu_cycles = sum(_sum(t, "cpu.cfg%d" % i, "cycles") for i in (1, 2, 3))
    m["cpu.ns_per_sim_cycle"] = _ratio(cpu_s, cpu_cycles, 1e9)
    m["sim.gang_over_serial"] = _ratio(_sum(t, "sim.gang"), cpu_s)

    # SampleRunner's own timers, carried as arguments of its span.
    runs = [r for r in t if r["kind"] == "sample.run"]
    for phase, name in (("warmup", "functional"), ("detailed", "detailed")):
        m["sample.%s_ns_per_inst" % name] = _ratio(
            sum(r["args"][phase + "_s"] / r["slowness"] for r in runs),
            sum(r["args"][phase + "_insts"] for r in runs), 1e9)
    m["sample.functional_speedup"] = _ratio(
        m["sample.detailed_ns_per_inst"], m["sample.functional_ns_per_inst"])
    m["ckpt.save_s"] = _sum(t, "ckpt.save") / passes
    m["ckpt.restore_s"] = _sum(t, "ckpt.restore") / passes
    saves = sum(1 for r in t if r["kind"] == "ckpt.save")
    m["ckpt.snapshot_mb"] = _ratio(_sum(t, "ckpt.save", "bytes"), saves,
                                   1.0 / 2**20)
    # Interval phase: the sampled run's wall after its warm-up pass.
    m["runner.parallel_eff"] = _ratio(
        sum(r["args"]["detailed_s"] for r in runs),
        raw["workers"] * sum(r["args"]["wall_s"] - r["args"]["warmup_s"]
                             for r in runs))
    m["runner.records"] = _sum(t, "sample.run", "records") / passes
    m["runner.workers"] = raw["workers"]

    c = raw["counts"]
    m["preload.arb_conflict_frac"] = _ratio(c["arbConflicts"], c["arbGrants"])
    m["preload.arb_wait_cycles"] = c["arbWaitCycles"]
    m["cache.l2i_miss_frac"] = _ratio(c["l2iMisses"],
                                      c["l2iHits"] + c["l2iMisses"])
    for name, field in COUNT_METRICS.items():
        m[name] = c[field]

    for layer in SELF_LAYERS:
        m["self.%s_s" % layer] = sum(
            r["self_s"] for r in t if r["layer"] == layer) / passes

    m["host.wall_s"] = raw_pass_seconds(units)
    m["host.probe_s"] = statistics.median(sum(p) for p in raw["probes"])
    m["host.probe_iqr_pct"] = iqr_pct(raw["slowness"])
    m["host.nproc"] = raw["nproc"]

    # Tracing overhead: the traced copy of each unit's end-to-end work
    # (a span marked replica, else the whole unit) against the untraced
    # unit, both as per-unit medians of normalised time.
    replica = []
    for u in range(len(units)):
        rows = [r for r in t if r["unit"] == u and
                r["args"].get("replica") == 1]
        if not rows:
            rows = [r for r in t if r["unit"] == u and r["kind"] ==
                    "bench.unit"]
        replica.append(statistics.median(r["norm_s"] for r in rows))
    untraced = sum(unit_median(u["samples"]) for u in units)
    m["bench.trace_overhead_pct"] = (sum(replica) - untraced) / untraced * 100

    # Self time of the layers against the traced phase's wall time with
    # the probes taken out, both in host seconds.
    layer_s = sum(r["self_us"] for r in t if r["layer"] != "bench")
    busy = raw["traced_wall_s"] - raw["traced_probe_s"]
    m["bench.span_coverage_pct"] = _ratio(layer_s * 1e-6, busy, 100.0)
    return m


def end_to_end_metrics(raw):
    return {
        "ns_per_inst": ns_per_inst(raw["units"]),
        "setup_s": setup_seconds(raw["setup"]),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
    }


# ---- build and run ------------------------------------------------------

def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(target_dir):
    """Configure and build the harness in a directory of @target_dir
    keyed by this checkout, so checkouts sharing a target directory
    never build each other's sources."""
    if not os.path.isfile(os.path.join(ROOT, "src", "zbp", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src" % ROOT)
    key = hashlib.sha1(ROOT.encode()).hexdigest()[:12]
    build_dir = os.path.join(target_dir, "perfbench-" + key)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log = sys.stderr
    subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target",
                    "perfbench_harness"], check=True, stdout=log, stderr=log)
    return build_dir, os.path.join(build_dir, "perfbench_harness")


def load_events(path):
    """The complete-duration events of a harness trace file; fails if
    the writer dropped any."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    for e in events:
        if e.get("name") == "zbp_obs_summary" and e["args"]["dropped"]:
            fail("trace writer dropped %d spans" % e["args"]["dropped"])
    return [e for e in events if e["ph"] == "X"]


def run_harness(harness, build_dir, args):
    """Runs the harness; returns its exit code, raw samples and, with
    --trace 1, its spans.  The trace file is kept in @build_dir under
    the run's name for viewing in Perfetto."""
    tmp = tempfile.mkdtemp(prefix="run-", dir=build_dir)
    try:
        out = os.path.join(tmp, "raw.json")
        trace_out = os.path.join(tmp, "trace.json")
        cmd = [harness, "--workload", args.workload, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace",
               str(args.trace), "--out", out, "--trace-out", trace_out]
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr,
                                  timeout=HARNESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
        if not os.path.isfile(out):
            fail("harness exited %d without results" % proc.returncode)
        with open(out) as f:
            raw = json.load(f)
        events = None
        if args.trace:
            events = load_events(trace_out)
            os.replace(trace_out, os.path.join(
                build_dir, "perfbench-%s-%d.trace.json" %
                (args.workload, args.seed)))
        return proc.returncode, raw, events
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.abspath(os.path.join(ROOT, target))
    try:
        build_dir, harness = build(target)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)

    returncode, raw, events = run_harness(harness, build_dir, args)
    raw = resolve(raw, P_REF)
    if args.trace:
        values = per_layer_metrics(raw, events)
        names = PER_LAYER
    else:
        values = end_to_end_metrics(raw)
        names = END_TO_END
    metrics = {n: {"value": values[n], "unit": u} for n, u in names}

    for e in raw["errors"]:
        print("perfbench: error: " + e, file=sys.stderr)
    correct = returncode == 0 and not raw["errors"] and \
        raw["failed"] == 0 and raw["attempted"] > 0
    diag = {
        "workload": raw["workload"], "seed": raw["seed"],
        "digest": raw["digest"], "workers": raw["workers"],
        "nproc": raw["nproc"], "passes": raw["passes"],
        "host.wall_s": raw_pass_seconds(raw["units"]),
        "host.probe_s": statistics.median(sum(p) for p in raw["probes"]),
        "host.probe_iqr_pct": iqr_pct(raw["slowness"]),
        "raw_ns_per_inst": raw_pass_seconds(raw["units"]) /
        sum(u["insts"] for u in raw["units"]) * 1e9,
    }
    print(json.dumps({"diagnostics": diag}))
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
