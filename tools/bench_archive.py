#!/usr/bin/env python3
"""Archive the medians of a google-benchmark JSON report into BENCH_history/.

Usage: bench_archive.py REPORT.json [--history DIR] [--label NAME]

Writes one compact JSON file per invocation —
``<history>/<UTC stamp>-<git rev>-<label>.json`` (the rev carries a
``-dirty`` suffix when tracked files have uncommitted changes) — holding only
``run_name -> {"real_time": median, "time_unit": unit}``, a few hundred
bytes instead of the full multi-repetition report. ci.sh calls this after
its bench stages so the perf trajectory across commits stays diffable even
after BENCH_results.json baselines are rewritten: any two history files
(or a history file and a full report) feed straight into bench_compare.py,
which already understands plain per-iteration entries.

The archive format is itself a minimal google-benchmark report (a
``benchmarks`` array of median entries), so no new parser is needed
anywhere.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys


def load_medians(path):
    """run_name -> (median real_time, unit); mirrors bench_compare.py."""
    with open(path) as fh:
        report = json.load(fh)
    medians = {}
    fallback = {}
    for entry in report.get("benchmarks", []):
        name = entry.get("run_name", entry.get("name", ""))
        unit = entry.get("time_unit", "ns")
        if entry.get("run_type") == "aggregate":
            if entry.get("aggregate_name") == "median":
                medians[name] = (float(entry["real_time"]), unit)
        else:
            fallback.setdefault(name, []).append(
                (float(entry["real_time"]), unit))
    for name, samples in fallback.items():
        if name in medians:
            continue
        times = sorted(t for t, _ in samples)
        medians[name] = (times[len(times) // 2], samples[0][1])
    return medians


def git_revision(start_dir):
    """Short HEAD revision, suffixed ``-dirty`` when tracked files differ
    from HEAD, so rows measured on an uncommitted tree are not filed under
    the commit they started from."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=start_dir, capture_output=True, text=True,
            check=True).stdout.strip()
    try:
        rev = git("rev-parse", "--short", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            rev += "-dirty"
        return rev
    except (OSError, subprocess.CalledProcessError):
        return "nogit"


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Archive a benchmark report's medians into a history "
                    "directory.")
    parser.add_argument("report", help="google-benchmark JSON report")
    parser.add_argument(
        "--history", default="BENCH_history",
        help="history directory (default: %(default)s, created if missing)")
    parser.add_argument(
        "--label", default="bench",
        help="short run label used in the archive file name")
    args = parser.parse_args(argv)

    medians = load_medians(args.report)
    if not medians:
        print(f"error: no benchmarks in {args.report}", file=sys.stderr)
        return 2

    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")
    rev = git_revision(os.path.dirname(os.path.abspath(args.report)))
    os.makedirs(args.history, exist_ok=True)
    out_path = os.path.join(args.history, f"{stamp}-{rev}-{args.label}.json")

    archive = {
        "context": {"source_report": os.path.basename(args.report),
                    "git_revision": rev, "archived_utc": stamp},
        "benchmarks": [
            {"name": name, "run_name": name, "run_type": "aggregate",
             "aggregate_name": "median", "real_time": time,
             "time_unit": unit}
            for name, (time, unit) in sorted(medians.items())
        ],
    }
    with open(out_path, "w") as fh:
        json.dump(archive, fh, indent=1)
        fh.write("\n")
    print(f"archived {len(medians)} medians -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
