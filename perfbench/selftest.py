#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Builds the harness (as run.py does) and checks:
  - the C++ self-tests: nearest-rank percentiles against hand-computed
    cases, one seed -> one input digest and different seeds -> different
    inputs, and every correctness gate tripping on a perturbed answer;
  - that BENCHMARK.json names exactly the metrics run.py and
    trace_report.py produce, with the same units;
  - that a short untraced and a short traced run of every workload print
    exactly BENCHMARK.json's end-to-end / per-layer metric names;
  - that run.py fails without a result in a directory holding only
    BENCHMARK.json and perfbench/ (no program source to build).
Exits non-zero on the first failing check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402
import trace_report  # noqa: E402


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        sys.exit(1)


def main():
    out_dir = run.build_dir()
    binary = run.build(out_dir)
    work_dir = os.path.join(out_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    done = subprocess.run([binary, "--self-test", "--work-dir", work_dir])
    check(done.returncode == 0, "C++ self-tests")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    declared_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    declared_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(sorted(declared_e2e) == sorted(run.END_TO_END),
          "BENCHMARK.json end_to_end matches run.END_TO_END (names and units)")
    check(sorted(declared_layer) == sorted(trace_report.PER_LAYER),
          "BENCHMARK.json per_layer matches trace_report.PER_LAYER")
    check(sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS),
          "BENCHMARK.json workloads match run.WORKLOADS")

    for workload in run.WORKLOADS:
        for trace, declared in ((0, declared_e2e), (1, declared_layer)):
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", "5", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            check(done.returncode == 0, f"{workload} --trace {trace} exits 0")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload} --trace {trace}: result keys")
            check(result["correct"] is True and result["attempted"] >= 1,
                  f"{workload} --trace {trace}: correct with ops attempted")
            printed = sorted((k, v["unit"]) for k, v in result["metrics"].items())
            check(printed == sorted(declared),
                  f"{workload} --trace {trace}: printed metrics equal BENCHMARK.json")

    # A tree holding only BENCHMARK.json and perfbench/ must fail cleanly.
    bare = os.path.join(out_dir, "bare-tree")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", run.WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "a tree without the program fails without printing a result")
    print("selftest.py passed")


if __name__ == "__main__":
    main()
