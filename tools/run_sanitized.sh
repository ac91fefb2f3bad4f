#!/bin/sh
# Configure a sanitizer-instrumented build tree and run the full test
# suite under it. This is the memory-safety gate for the solver kernels
# (bitset enumeration, pricing branch-and-bound, simplex warm starts):
# ASan catches out-of-bounds/use-after-free, UBSan catches overflow and
# invalid casts, and -fno-sanitize-recover turns every finding into a
# test failure. The build covers every target, so the test-only
# tests/oracles library (the parity suite's reference kernels) is
# instrumented too.
#
# Usage: run_sanitized.sh [build-dir] [sanitizers]
#   build-dir   defaults to build-asan (sibling of build/)
#   sanitizers  defaults to address,undefined (MRWSN_SANITIZE syntax)
set -eu
REPO=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${1:-"$REPO/build-asan"}
SANITIZERS=${2:-address,undefined}
cmake -B "$BUILD" -S "$REPO" -DMRWSN_SANITIZE="$SANITIZERS" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD" -j "$(nproc 2>/dev/null || echo 4)"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc 2>/dev/null || echo 4)"
# Re-run the differential LP fuzz harness under the sanitizers with a
# deeper seed count: the revised simplex's LU/eta kernels are exactly the
# kind of index-heavy code ASan/UBSan earn their keep on.
"$REPO/tools/run_fuzz.sh" "$BUILD" "${MRWSN_FUZZ_SEEDS:-500}"
echo "sanitized test run ($SANITIZERS) passed"

# ThreadSanitizer stage for the sharded parallel MAC engine. TSan cannot
# share a build with ASan, so it gets its own tree; only the parallel
# simulator's determinism suite drives every cross-region message path at
# several thread counts, the admission-concurrency suite races snapshot
# readers against committing writers and churn repairs
# (apply_topology_delta racing evaluate(), with per-epoch shadow
# verification), and the util suite drives the parallel_for fan-out
# pool through nested calls, concurrent callers, exceptions and
# thread-count changes — between them, every multithreaded path in the
# repository (util::WorkerPool, util::parallel_for, mac/parallel_sim.*,
# the engine's snapshot/commit/churn surface) runs under TSan.
# Skippable with MRWSN_SKIP_TSAN=1 (e.g. on kernels without ASLR compat).
if [ "${MRWSN_SKIP_TSAN:-0}" != "1" ]; then
  TSAN_BUILD=${MRWSN_TSAN_BUILD:-"$REPO/build-tsan"}
  cmake -B "$TSAN_BUILD" -S "$REPO" -DMRWSN_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$TSAN_BUILD" -j "$(nproc 2>/dev/null || echo 4)" \
    --target test_mac_parallel --target test_admission_concurrent \
    --target test_util
  "$TSAN_BUILD/tests/test_mac_parallel"
  "$TSAN_BUILD/tests/test_admission_concurrent"
  "$TSAN_BUILD/tests/test_util"
  echo "tsan parallel-MAC + admission-concurrency + fan-out pool run passed"
fi
