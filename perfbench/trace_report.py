#!/usr/bin/env python3
"""Turn a perfbench span file into the per-layer metric table.

The span file is the TSV the C++ harness writes in a traced run:

    id  parent  op  thread  name  start_ns  end_ns  key=value,...

Usage (standalone, prints the table):

    python3 perfbench/trace_report.py SPANS.tsv

run.py imports `per_layer()` directly.
"""

import math
import statistics
import sys
from collections import defaultdict

# (name, unit): every per-layer metric, in report order. BENCHMARK.json's
# per_layer list must name exactly these (selftest.py checks it).
PER_LAYER = [
    # Set-up (io, net, core) -> setup_s
    ("io.load_ms", "ms"),
    ("net.build_ms", "ms"),
    ("core.model_build_ms", "ms"),
    ("core.delta_build_ms", "ms"),
    ("core.engine_build_ms", "ms"),
    ("core.first_publish_ms", "ms"),
    # Read path -> eval_p50_us, eval_per_s, eval_p99_us
    ("core.eval.pricing_rounds", "count"),
    ("core.eval.tier0_cols", "count"),
    ("core.eval.heuristic_cols", "count"),
    ("core.eval.exact_rounds", "count"),
    ("core.eval.multi_exact_share", "ratio"),
    ("core.eval.master_cols", "count"),
    ("lp.eval.pivots", "count"),
    ("core.eval.shelved", "count"),
    ("core.shelf_dropped", "count"),
    # Reader waits -> eval_p99_us
    ("core.eval.epoch_lag", "count"),
    ("core.eval.quiet_p50_us", "us"),
    ("core.eval.during_commit_p50_us", "us"),
    ("core.eval.during_churn_p99_us", "us"),
    # Writer path -> commit_p50_ms, commit_p90_ms
    ("core.commit.pricing_rounds", "count"),
    ("core.commit.exact_rounds", "count"),
    ("lp.commit.pivots", "count"),
    ("lp.commit.dual_warm_ratio", "ratio"),
    ("core.commit.master_cols", "count"),
    ("core.pool_columns", "count"),
    ("core.commit.admitted_ratio", "ratio"),
    # Churn -> churn_p50_ms, churn_p90_ms
    ("core.churn.delta_ms", "ms"),
    ("core.churn.engine_ms", "ms"),
    ("core.churn.links", "count"),
    ("core.churn.columns_dropped", "count"),
    # One-shot LP -> truth_s
    ("core.truth.flow_s_p50", "s"),
    ("core.truth.flow_s_max", "s"),
    ("core.truth.rounds", "count"),
    ("core.truth.exact_rounds", "count"),
    ("core.truth.heuristic_cols", "count"),
    ("core.truth.columns", "count"),
    # Routing, estimators -> study_s
    ("routing.find_path_ms", "ms"),
    ("core.estimate_us", "us"),
    # MAC -> sim_rate
    ("mac.run_s.rts_off", "s"),
    ("mac.run_s.rts_on", "s"),
    ("mac.tx_per_s", "1/s"),
    ("mac.speedup", "ratio"),
    # Process (util.parallel fan-out) -> eval_per_s, eval_p99_us, sim_rate
    ("proc.cpu_per_op_us", "us"),
    ("proc.cpu_util", "cores"),
    ("proc.ctx_switches_per_op", "count"),
    ("proc.study_cpu_util", "cores"),
    ("proc.serial_sys_share", "ratio"),
    # Self time per layer over the traced run (thread-seconds)
    ("self_s.io", "s"),
    ("self_s.net", "s"),
    ("self_s.core.model", "s"),
    ("self_s.core.engine", "s"),
    ("self_s.core.delta", "s"),
    ("self_s.core.truth", "s"),
    ("self_s.core.estimate", "s"),
    ("self_s.routing", "s"),
    ("self_s.mac", "s"),
    # Tracing overhead: median over traced windows / over untraced ones - 1
    ("trace.overhead.eval_cpu", "ratio"),
    ("trace.overhead.commit_cpu", "ratio"),
    ("trace.overhead.churn_cpu", "ratio"),
    ("trace.overhead.eval_p50", "ratio"),
    ("trace.overhead.truth_cpu", "ratio"),
    # Host over the traced run (noisy-host marker), filled in by run.py
    ("host.steal_pct", "%"),
    ("host.load1", "count"),
]

# Span name -> layer for the self-time table.
LAYER_OF = {
    "io.load_scenario": "io",
    "net.Network": "net",
    "core.PhysicalInterferenceModel": "core.model",
    "core.TopologyDelta": "core.model",
    "core.AdmissionEngine": "core.engine",
    "core.snapshot": "core.engine",
    "core.evaluate": "core.engine",
    "core.commit": "core.engine",
    "core.evict": "core.engine",
    "core.apply_topology_delta": "core.engine",
    "core.topology_delta": "core.delta",
    "core.max_path_bandwidth": "core.truth",
    "core.estimate": "core.estimate",
    "routing.find_path": "routing",
    "mac.ParallelCsmaSimulator.run": "mac",
}

SETUP_SPANS = {
    "io.load_ms": "io.load_scenario",
    "net.build_ms": "net.Network",
    "core.model_build_ms": "core.PhysicalInterferenceModel",
    "core.delta_build_ms": "core.TopologyDelta",
    "core.engine_build_ms": "core.AdmissionEngine",
    "core.first_publish_ms": "core.snapshot",
}


class Span:
    __slots__ = ("id", "parent", "op", "thread", "name", "start", "end", "attrs")

    def __init__(self, fields):
        self.id = int(fields[0])
        self.parent = int(fields[1])
        self.op = int(fields[2])
        self.thread = int(fields[3])
        self.name = fields[4]
        self.start = int(fields[5])
        self.end = int(fields[6])
        self.attrs = {}
        if len(fields) > 7 and fields[7]:
            for item in fields[7].split(","):
                key, value = item.split("=", 1)
                self.attrs[key] = float(value)

    @property
    def seconds(self):
        return (self.end - self.start) * 1e-9


def read_spans(path):
    with open(path) as handle:
        return [Span(line.rstrip("\n").split("\t")) for line in handle if line.strip()]


def percentile(values, p):
    """Nearest-rank percentile, the same rule as the C++ harness."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def mean(values):
    return statistics.fmean(values) if values else 0.0


def overlaps(span, intervals):
    """True when `span` overlaps any (start, end) in the sorted list."""
    lo, hi = 0, len(intervals)
    while lo < hi:  # first interval ending after the span starts
        mid = (lo + hi) // 2
        if intervals[mid][1] <= span.start:
            lo = mid + 1
        else:
            hi = mid
    return lo < len(intervals) and intervals[lo][0] < span.end


def self_seconds(spans):
    """Per-layer self time: each span's duration minus its children's."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.seconds
    totals = defaultdict(float)
    for span in spans:
        layer = LAYER_OF.get(span.name)
        if layer:
            totals[layer] += span.seconds - child_time[span.id]
    return totals


def per_layer(spans):
    """Per-layer metric values (name -> number) from one traced run."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out = {}

    # Set-up: per-repeat totals of each layer call, median over repeats.
    setup_starts = sorted(s.start for s in by_name["io.load_scenario"])[::2]
    for metric, name in SETUP_SPANS.items():
        per_repeat = defaultdict(float)
        for span in by_name[name]:
            repeat = sum(1 for start in setup_starts if start <= span.start)
            per_repeat[repeat] += span.seconds * 1e3
        out[metric] = statistics.median(per_repeat.values()) if per_repeat else 0.0

    evals = by_name["core.evaluate"]
    attr_mean = lambda group, key: mean([s.attrs.get(key, 0.0) for s in group])
    for metric, key in [
        ("core.eval.pricing_rounds", "pricing_rounds"),
        ("core.eval.tier0_cols", "tier0_cols"),
        ("core.eval.heuristic_cols", "heuristic_cols"),
        ("core.eval.exact_rounds", "exact_rounds"),
        ("core.eval.master_cols", "master_cols"),
        ("lp.eval.pivots", "pivots"),
        ("core.eval.epoch_lag", "epoch_lag"),
    ]:
        out[metric] = attr_mean(evals, key)
    out["core.eval.multi_exact_share"] = (
        sum(1 for s in evals if s.attrs.get("exact_rounds", 0) > 1) / len(evals)
        if evals else 0.0)

    counters = by_name["run.counters"][-1].attrs if by_name["run.counters"] else {}
    evaluates = counters.get("evaluates", 0.0)
    out["core.eval.shelved"] = counters.get("shelved", 0.0) / evaluates if evaluates else 0.0
    out["core.shelf_dropped"] = counters.get("shelf_dropped", 0.0)

    commits = by_name["core.commit"]
    churns = by_name["core.apply_topology_delta"]
    commit_iv = sorted((s.start, s.end) for s in commits)
    churn_iv = sorted((s.start, s.end) for s in churns)
    writer_iv = sorted(commit_iv + churn_iv + [(s.start, s.end) for s in by_name["core.evict"]])
    us = lambda group: [s.seconds * 1e6 for s in group]
    # Reader waits: evaluates of the concurrent phase only (in the serial
    # phase no writer op runs beside an evaluate).
    clients = [s for s in evals if not s.attrs.get("serial")]
    out["core.eval.quiet_p50_us"] = percentile(
        us([s for s in clients if not overlaps(s, writer_iv)]), 50)
    out["core.eval.during_commit_p50_us"] = percentile(
        us([s for s in clients if overlaps(s, commit_iv)]), 50)
    out["core.eval.during_churn_p99_us"] = percentile(
        us([s for s in clients if overlaps(s, churn_iv)]), 99)

    for metric, key in [
        ("core.commit.pricing_rounds", "pricing_rounds"),
        ("core.commit.exact_rounds", "exact_rounds"),
        ("lp.commit.pivots", "pivots"),
        ("core.commit.master_cols", "master_cols"),
        ("core.commit.admitted_ratio", "admitted"),
    ]:
        out[metric] = attr_mean(commits, key)
    warm = sum(s.attrs.get("dual_resolves", 0.0) for s in commits)
    cold = sum(s.attrs.get("dual_fallbacks", 0.0) for s in commits)
    out["lp.commit.dual_warm_ratio"] = warm / (warm + cold) if warm + cold else 0.0
    out["core.pool_columns"] = counters.get("pool_columns", 0.0)

    deltas = {s.parent: s for s in by_name["core.topology_delta"]}
    out["core.churn.delta_ms"] = percentile([s.seconds * 1e3 for s in deltas.values()], 50)
    out["core.churn.engine_ms"] = percentile(
        [(s.seconds - (deltas[s.id].seconds if s.id in deltas else 0.0)) * 1e3 for s in churns], 50)
    out["core.churn.links"] = attr_mean(churns, "links")
    out["core.churn.columns_dropped"] = attr_mean(churns, "columns_dropped")

    # Column-generation work summed over the flows of one study (the run
    # repeats the study; op 1 is each repeat's first flow).
    truths = by_name["core.max_path_bandwidth"]
    studies = max(1, sum(1 for s in truths if s.op == 1))
    out["core.truth.flow_s_p50"] = percentile([s.seconds for s in truths], 50)
    out["core.truth.flow_s_max"] = max([s.seconds for s in truths], default=0.0)
    for metric, key in [
        ("core.truth.rounds", "rounds"),
        ("core.truth.exact_rounds", "exact_rounds"),
        ("core.truth.heuristic_cols", "heuristic_cols"),
        ("core.truth.columns", "columns"),
    ]:
        out[metric] = sum(s.attrs.get(key, 0.0) for s in truths) / studies
    out["routing.find_path_ms"] = percentile([s.seconds * 1e3 for s in by_name["routing.find_path"]], 50)
    out["core.estimate_us"] = percentile([s.seconds * 1e6 for s in by_name["core.estimate"]], 50)

    sims = by_name["mac.ParallelCsmaSimulator.run"]
    serial = [s for s in sims if s.attrs.get("threads") == 1.0]
    parallel = [s for s in sims if s not in serial] or serial
    pick = lambda group, rts: [s.seconds for s in group if s.attrs.get("rts") == rts]
    out["mac.run_s.rts_off"] = percentile(pick(parallel, 0.0), 50)
    out["mac.run_s.rts_on"] = percentile(pick(parallel, 1.0), 50)
    sim_wall = sum(s.seconds for s in parallel)
    out["mac.tx_per_s"] = sum(s.attrs.get("data_tx", 0.0) for s in parallel) / sim_wall if sim_wall else 0.0
    # 1-thread rerun time over configured-thread time, per simulation
    serial_mean = mean([s.seconds for s in serial])
    parallel_mean = mean([s.seconds for s in parallel])
    out["mac.speedup"] = serial_mean / parallel_mean if serial and parallel_mean else 0.0

    ops = counters.get("ops", 0.0)
    wall = counters.get("traffic_wall_s", 0.0)
    cpu = counters.get("traffic_cpu_s", 0.0)
    out["proc.cpu_per_op_us"] = cpu / ops * 1e6 if ops else 0.0
    out["proc.cpu_util"] = cpu / wall if wall else 0.0
    out["proc.ctx_switches_per_op"] = counters.get("traffic_switches", 0.0) / ops if ops else 0.0
    study_wall = counters.get("study_wall_s", 0.0)
    out["proc.study_cpu_util"] = counters.get("study_cpu_s", 0.0) / study_wall if study_wall else 0.0
    # Kernel share of the serial phase's CPU time: mostly the thread spawns
    # and joins of util::parallel_for.
    serial_cpu = counters.get("serial_cpu_s", 0.0)
    out["proc.serial_sys_share"] = (
        counters.get("serial_sys_s", 0.0) / serial_cpu if serial_cpu else 0.0)

    selfs = self_seconds(spans)
    for layer in ["io", "net", "core.model", "core.engine", "core.delta",
                  "core.truth", "core.estimate", "routing", "mac"]:
        out["self_s." + layer] = selfs.get(layer, 0.0)

    # The harness compares traced and untraced windows of the same run.
    for name in ["eval_cpu", "commit_cpu", "churn_cpu", "eval_p50", "truth_cpu"]:
        out["trace.overhead." + name] = counters.get("overhead_" + name, 0.0)
    return out


def print_table(values, out=sys.stdout):
    for name, unit in PER_LAYER:
        if name in values:
            out.write(f"  {name:34s} {values[name]:14.6g} {unit}\n")


def main(argv):
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    print_table(per_layer(read_spans(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
