#!/bin/sh
# The repository's one-command gate: everything a change must survive
# before it merges, in the order that fails fastest.
#
#   1. tier-1: configure + build + full ctest suite (unit and example
#      labels) in the standard build tree,
#   2. fuzz: the differential LP fuzz suites (ctest label "fuzz") at a
#      deeper seed count than the smoke run the suite includes,
#   3. sanitized: a separate ASan+UBSan build tree running the full
#      suite plus the fuzz harness again (skippable for quick local
#      iterations — see below). This includes the tiered-pricing parity
#      tests, so the heuristic pricing oracles and the candidate-stash
#      bookkeeping get sanitizer coverage on every gate run. The script
#      ends with a ThreadSanitizer stage (third build tree) that runs the
#      sharded parallel MAC determinism suite and the admission
#      concurrency suite under TSan; MRWSN_SKIP_TSAN=1 skips it.
#   4. replay bench: the admission load harness replays the 1k-op traces
#      in both mixes — the default 5%-commit families and the write-heavy
#      30% BM_AdmissionReplayWrite* ones — with 1e-6 parity verification
#      built in, and bench_compare.py checks the report still covers the
#      p50/p99/QPS/scenario-load metrics against the committed baseline.
#   5. churn + commit + batch bench: BM_ChurnReadmit{Incremental,Rebuild}
#      on the 100-node churn script, BM_CommitLatency/{128,1024,8192}, and
#      BM_BatchAdmission{Warm,Cold,Sequential} (the 50-query replay on one
#      engine through commit(), through a cold solve per query, and
#      through query() + add_background() as the admission controller
#      drives it), with --require coverage guards for every family.
#   6. perfbench: the end-to-end benchmark's self-tests
#      (perfbench/selftest.py: gate trips, metric names, short runs of
#      every workload), then the scaled Fig. 4 study on seed 3 under a
#      120 s timeout. Seed 3 is the study's heavy tail: its LP truth prices
#      seven flows against an undeliverable background, which took minutes
#      of CPU before phase A stopped at the first exact round proving it.
#   7. portable kernels: test_core built in a -DMRWSN_FAST_KERNELS=OFF
#      tree (build-nofast, sibling of build/) running the pinned
#      column-generation suites — the stabilization and exact-only round
#      counts, tiered-pricing thread-count identity, the phase A
#      certificate sweeps and the effort caps. Those pins count rounds of
#      degenerate masters, so they must hold without -march=native
#      floating-point contraction too, not just in the stage 1 tree.
#
# Stages 4 and 5 archive their median reports into BENCH_history/ (one
# compact JSON per run, named by UTC stamp + git revision) so the perf
# trajectory across commits stays diffable after baselines are rewritten.
#
# Full benchmark regressions are gated separately: regenerate with
#   cmake --build build --target bench_json
# and diff against the committed baseline with
#   tools/bench_compare.py old.json BENCH_results.json \
#     --require BM_CsmaParallel --require BM_EventQueueChurn
#
# Usage: ci.sh [build-dir]
#   build-dir  defaults to build/ (created if missing)
#
# Environment:
#   MRWSN_CI_SKIP_SANITIZED=1  skip stage 3 (e.g. resource-starved hosts)
#   MRWSN_CI_SKIP_BENCH=1      skip stage 4
#   MRWSN_FUZZ_SEEDS=N         seeds per fuzz family in stage 2
#                              (default 2000; the sanitized stage keeps
#                              run_sanitized.sh's own default)
set -eu
REPO=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${1:-"$REPO/build"}
JOBS=$(nproc 2>/dev/null || echo 4)

echo "== ci stage 1: tier-1 build + tests =="
cmake -B "$BUILD" -S "$REPO"
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== ci stage 2: differential LP fuzz =="
"$REPO/tools/run_fuzz.sh" "$BUILD" "${MRWSN_FUZZ_SEEDS:-2000}"

if [ "${MRWSN_CI_SKIP_SANITIZED:-0}" = "1" ]; then
  echo "== ci stage 3: sanitized run skipped (MRWSN_CI_SKIP_SANITIZED) =="
else
  echo "== ci stage 3: ASan+UBSan build + tests (incl. tiered-pricing parity) =="
  "$REPO/tools/run_sanitized.sh"
fi

if [ "${MRWSN_CI_SKIP_BENCH:-0}" = "1" ]; then
  echo "== ci stage 4: replay bench skipped (MRWSN_CI_SKIP_BENCH) =="
else
  echo "== ci stage 4: admission replay bench + coverage guard =="
  cmake --build "$BUILD" -j "$JOBS" --target admission_load
  REPLAY_JSON="$BUILD/bench_replay_ci.json"
  # The 1k traces plus the scenario load pair: every replayed evaluate is
  # parity-checked against a sequential re-execution inside the harness,
  # so a passing run is a correctness statement, not just a timing.
  # Both replay mixes: the default 5%-commit families and the write-heavy
  # 30% ones (BM_AdmissionReplayWrite*), which stress the structure-sharing
  # commit path rather than the read side.
  "$REPO/tools/bench_to_json.sh" "$REPLAY_JSON" \
    'BM_AdmissionReplay.*/ops:1000/|BM_Scenario' \
    "$BUILD/bench/admission_load"
  "$REPO/tools/bench_compare.py" "$REPO/BENCH_results.json" "$REPLAY_JSON" \
    --require BM_AdmissionReplayP50 --require BM_AdmissionReplayP99 \
    --require BM_AdmissionReplayQPS --require BM_AdmissionReplayWriteP50 \
    --require BM_AdmissionReplayWriteP99 \
    --require BM_AdmissionReplayWriteQPS --require BM_ScenarioParseText \
    --require BM_ScenarioLoadBlob
  "$REPO/tools/bench_archive.py" "$REPLAY_JSON" \
    --history "$REPO/BENCH_history" --label replay

  echo "== ci stage 5: churn + commit-latency + batch bench + coverage guard =="
  # Incremental topology repair vs cold rebuild on the 100-node churn
  # script, the structure-sharing commit-latency family at 128/1k/8k
  # background columns, and the batched admission replay warm (one engine
  # committing every decision), cold, and sequential (query() then
  # add_background(), publishing on every read); the --require guards fail the gate
  # if any side of a comparison silently drops out of the suite.
  cmake --build "$BUILD" -j "$JOBS" --target perf_micro
  CHURN_JSON="$BUILD/bench_churn_ci.json"
  "$REPO/tools/bench_to_json.sh" "$CHURN_JSON" \
    'BM_ChurnReadmit|BM_CommitLatency|BM_BatchAdmission' \
    "$BUILD/bench/perf_micro"
  "$REPO/tools/bench_compare.py" "$REPO/BENCH_results.json" "$CHURN_JSON" \
    --require BM_ChurnReadmitIncremental --require BM_ChurnReadmitRebuild \
    --require BM_CommitLatency --require BM_BatchAdmissionWarm \
    --require BM_BatchAdmissionCold --require BM_BatchAdmissionSequential
  "$REPO/tools/bench_archive.py" "$CHURN_JSON" \
    --history "$REPO/BENCH_history" --label churn
fi

echo "== ci stage 6: perfbench self-tests + Fig. 4 heavy-tail guard =="
python3 "$REPO/perfbench/selftest.py"
timeout 120 "$BUILD/tools/mrwsn" fig4 --seed 3

echo "== ci stage 7: pinned column-generation tests, MRWSN_FAST_KERNELS=OFF =="
NOFAST_BUILD="$REPO/build-nofast"
cmake -B "$NOFAST_BUILD" -S "$REPO" -DMRWSN_FAST_KERNELS=OFF
cmake --build "$NOFAST_BUILD" -j "$JOBS" --target test_core
"$NOFAST_BUILD/tests/test_core" --gtest_filter='ColumnGenerationStabilization.*:TieredPricing.*:BackgroundCertificate.*:ColumnGenerationOptions.*'

echo "ci gate passed"
