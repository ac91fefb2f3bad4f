#!/usr/bin/env python3
"""End-to-end benchmark of the admission service and the scaled Fig. 4 study.

    python3 perfbench/run.py --workload admit-read|admit-write --seed N \
        --seconds S --trace 0|1

Run from the root of an mrwsn source tree. The first run configures and
builds the library and the harness (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later runs only check that the build is current.

--trace 0 runs the workload untraced and reports the end-to-end metrics.
--trace 1 runs it with spans recorded in alternate traffic windows and in
one of the studies, and reports the per-layer metrics derived from the
spans (trace_report.py), including the tracing overhead: traced against
untraced windows of the same process.

Every run checks every answer (per-epoch shadow replay, cold rebuild after
churn, certified LP truth, thread-count-independent CSMA reports). When a
check fails the run exits non-zero without printing a result. The last
stdout line is the result:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"<name>": {"value": x, "unit": "<unit>"}, ...}}
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import trace_report  # noqa: E402

WORKLOADS = ("admit-read", "admit-write")

# (name, unit) of the end-to-end metrics in the result line, which
# BENCHMARK.json bounds: the ones whose spread across ten seeds stayed
# within their bound on a 4-vCPU host where steal and the host's speed
# drifted between runs (README.md, "Which metrics are gated").
END_TO_END = [
    ("truth_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
]
# Measured and printed in the report, but not in the result line: on that
# host their ten-seed spreads reached 0.28-0.42 (process CPU time per
# admission op) and 0.3-2.0 (wall-clock figures), so no bound of at most
# 0.25 holds for them. error_rate is 0 on a correct run; the result's
# attempted/failed fields carry it.
REPORT_ONLY = [
    ("eval_cpu_us", "us"),
    ("commit_cpu_ms", "ms"),
    ("churn_cpu_ms", "ms"),
    ("eval_p50_us", "us"),
    ("eval_p99_us", "us"),
    ("eval_per_s", "1/s"),
    ("commit_p50_ms", "ms"),
    ("commit_p90_ms", "ms"),
    ("churn_p50_ms", "ms"),
    ("churn_p90_ms", "ms"),
    ("truth_s", "s"),
    ("study_s", "s"),
    ("sim_rate", "air-s/wall-s"),
    ("error_rate", "ratio"),
]

# A run must end within 180 s; leave room for start-up and reporting.
RUN_BUDGET_S = 170.0
BUILD_TIMEOUT_S = 840.0


def fail(message, code=1):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    """Configure (first time) and build the harness; returns the binary."""
    log_path = os.path.join(out_dir, "build.log")
    os.makedirs(out_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs])
    with open(log_path, "a") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail(f"build timed out: {' '.join(step)}")
            if done.returncode != 0:
                with open(log_path) as handle:
                    sys.stderr.write(handle.read()[-4000:])
                fail(f"build failed: {' '.join(step)} (log: {log_path})")
    return os.path.join(out_dir, "perfbench")


def read_cpu_times():
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:]
    values = [int(v) for v in fields]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user time
    return sum(values[:8]), steal


def read_load1():
    with open("/proc/loadavg") as handle:
        return float(handle.read().split()[0])


class HostSample:
    """Steal share and load average over a stretch of the run."""

    def __init__(self):
        self.total0, self.steal0 = read_cpu_times()
        self.load0 = read_load1()

    def finish(self):
        total, steal = read_cpu_times()
        span = total - self.total0
        return {
            "steal_pct": 100.0 * (steal - self.steal0) / span if span else 0.0,
            "load1_start": self.load0,
            "load1_end": read_load1(),
        }


def cmake_cache(out_dir):
    cache = {}
    path = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                match = re.match(r"^([A-Za-z_0-9]+):[A-Z]+=(.*)$", line.strip())
                if match:
                    cache[match.group(1)] = match.group(2)
    return cache


def compiler_version(out_dir):
    files = os.path.join(out_dir, "CMakeFiles")
    for entry in sorted(os.listdir(files)) if os.path.isdir(files) else []:
        path = os.path.join(files, entry, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            with open(path) as handle:
                text = handle.read()
            cid = re.search(r'CMAKE_CXX_COMPILER_ID "([^"]*)"', text)
            ver = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"', text)
            return f"{cid.group(1) if cid else '?'} {ver.group(1) if ver else '?'}"
    return "unknown"


def source_digest():
    """SHA-256 over the library sources: identifies the measured program
    even in a checkout that is not a git repository."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_context(out_dir, harness):
    cache = cmake_cache(out_dir)
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": compiler_version(out_dir),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "?"),
        "fast_kernels": cache.get("MRWSN_FAST_KERNELS", "?"),
        "march_native": cache.get("MRWSN_HAS_MARCH_NATIVE", "?"),
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "configured_threads": harness.get("configured_threads"),
        "mrwsn_threads_set": bool(harness.get("mrwsn_threads_env")),
    }


def run_harness(binary, workload, seed, seconds, deadline, trace_file=None):
    """One harness run; returns (result dict, host sample)."""
    work_dir = os.path.join(os.path.dirname(binary), "work")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--work-dir", work_dir]
    if trace_file:
        cmd += ["--trace-file", trace_file]
    host = HostSample()
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        fail("no time left in the run budget")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded the {RUN_BUDGET_S:.0f} s run budget")
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        fail(f"harness failed with exit code {done.returncode}", 3)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    return json.loads(lines[-1]), host.finish()


def print_report(title, values, units):
    print(title)
    for name, unit in units:
        if name in values:
            print(f"  {name:34s} {values[name]:14.6g} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail("--seconds must be positive", 2)
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{ROOT} is not an mrwsn source tree (no {needed})", 2)

    out_dir = build_dir()
    binary = build(out_dir)
    deadline = time.monotonic() + RUN_BUDGET_S

    if args.trace == 0:
        result, host = run_harness(binary, args.workload, args.seed,
                                   args.seconds, deadline)
        values = result["metrics"]
        names = END_TO_END
        report = END_TO_END + REPORT_ONLY
    else:
        with tempfile.NamedTemporaryFile(prefix="spans-", suffix=".tsv",
                                         dir=out_dir, delete=False) as handle:
            span_file = handle.name
        try:
            result, host = run_harness(binary, args.workload, args.seed,
                                       args.seconds, deadline, span_file)
            values = trace_report.per_layer(trace_report.read_spans(span_file))
        finally:
            os.remove(span_file)
        values["host.steal_pct"] = host["steal_pct"]
        values["host.load1"] = host["load1_end"]
        names = report = trace_report.PER_LAYER

    context = run_context(out_dir, result)
    context.update({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "input_digest": result.get("input_digest"), "host": host,
                    "counts": result.get("counts"),
                    "estimator_rms_error": result.get("estimator_rms_error")})
    print("context: " + json.dumps(context, sort_keys=True))
    title = f"{args.workload} seed {args.seed}: " + (
        "per-layer metrics (traced run)" if args.trace else "end-to-end metrics")
    print_report(title, values, report)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    print(json.dumps({"correct": True, "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
