#!/bin/sh
# Rebuild and run the fuzz suites (ctest label "fuzz") with a configurable
# seed count and wall-clock budget:
#   * test_lp_fuzz solves every generated LP with lp::solve and with the
#     dense reference tableau of tests/oracles and asserts status/objective
#     parity plus the KKT certificate, over five in-domain families, the
#     warm-start and dual re-solve patterns, and a badly-scaled family that
#     drives the revised engine into its equilibrated restart (20 instances
#     per seed);
#   * test_topology_delta_fuzz replays random churn through the incremental
#     repair path and compares every epoch with a cold rebuild.
# A longer run here buys real coverage of the numerical core.
#
# Usage: run_fuzz.sh [build-dir] [seeds-per-family] [timeout-seconds]
#   build-dir          defaults to build/ (must be configured already)
#   seeds-per-family   defaults to 1000 (MRWSN_FUZZ_SEEDS for both suites)
#   timeout-seconds    per-test ctest timeout, defaults to 300
set -eu
REPO=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${1:-"$REPO/build"}
SEEDS=${2:-1000}
TIMEOUT=${3:-300}
if [ ! -f "$BUILD/CTestTestfile.cmake" ]; then
  echo "error: $BUILD is not a configured build tree (run cmake first)" >&2
  exit 1
fi
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)" \
  --target test_lp_fuzz --target test_topology_delta_fuzz
MRWSN_FUZZ_SEEDS="$SEEDS" ctest --test-dir "$BUILD" -L fuzz \
  --output-on-failure --timeout "$TIMEOUT" -j "$(nproc 2>/dev/null || echo 4)"
echo "fuzz run ($SEEDS seeds per family) passed"
