#!/bin/sh
# The repository's one-command gate: everything a change must survive
# before it merges, in the order that fails fastest.
#
#   1. tier-1: configure + build + full ctest suite (unit and example
#      labels) in the standard build tree. Every build compiles with
#      -O3 -ffp-contract=off (top-level CMakeLists.txt), so the pinned
#      column-generation round counts this suite checks hold in every
#      build type and on every ISA; FloatingPointSemantics.* in test_util
#      fails if multiply-adds are ever fused again,
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
#   5. churn + commit + batch + pricing bench: BM_ChurnReadmit{Incremental,
#      Rebuild} on the 100-node churn script, BM_CommitLatency/{128,1024,
#      8192}, BM_BatchAdmission{Warm,Cold,Sequential} (the 50-query replay
#      on one engine through commit(), through a cold solve per query, and
#      through query() + add_background() as the admission controller
#      drives it), and the pricing oracles BM_Pricing{Heuristic,Exact}
#      (the 70 m chain args, plus both tiers on the scaled Fig. 4 universe),
#      and the small Eq. 6 solves BM_JointBandwidthLp and
#      BM_ScenarioTwoPipeline (column generation, like every Eq. 6
#      solve), and the MAC
#      simulators: BM_CsmaSimulatedSecond (the DCF model as one region on
#      the 3-hop chain), BM_CsmaParallel/{1,8} (500 nodes sharded into
#      regions, 1 and 8 workers) and BM_TdmaSimulatedQuarterSecond, and
#      the cold set-up BM_TopologyBuild/500 (net::Network plus the
#      physical model's rx-power table on the scaled Fig. 4 positions),
#      and the cold conflict-matrix builds BM_ConflictMatrixBuild/{8,12}
#      (chains) and /fig4_seed4 (the scaled Fig. 4 union universe), and
#      the LP kernels BM_SimplexRandom/64 (a cold revised-simplex solve)
#      and BM_MasterResolveRevised/40/10 (warm master re-solves), and
#      BM_PhaseAUndeliverable (phase A proving the scaled Fig. 4 study's
#      flow-8 background undeliverable on a warm model), with
#      --require coverage guards for every family.
#   6. perfbench: the end-to-end benchmark's self-tests
#      (perfbench/selftest.py: gate trips, metric names, short runs of
#      every workload), then the scaled Fig. 4 study on seeds 3 and 4,
#      each under a 120 s timeout. Seed 3 is the study's heavy tail: its
#      LP truth prices seven flows against an undeliverable background,
#      which took minutes of CPU before phase A stopped at the first exact
#      round proving it. Both tables must match tests/golden/fig4_seed{3,4}
#      .txt byte for byte once the timing text is masked (`X s to draw and
#      route`, `LP ground truth ... in X s`, `in X s wall (N threads)`; the
#      thread count depends on the host): a solver or simulator change
#      that moves an LP truth, an estimate or a MAC counter fails here. A
#      change meant to move them re-records the goldens with the same sed.
#      Last, a memory guard: `mrwsn fig4 --nodes 1000 --seconds 0.05 --rts
#      off` must peak below 128 MiB of resident memory (the child's
#      ru_maxrss, read through python3's resource module). It peaked at
#      ~514 MiB while the physical model kept a num_links^2 pair table
#      (11,320 links) and at ~25 MiB without one; nothing in the set-up,
#      the LP truth or the MAC run may grow with the square of the link
#      count again.
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

  echo "== ci stage 5: churn + commit-latency + batch + pricing + MAC bench + coverage guard =="
  # Incremental topology repair vs cold rebuild on the 100-node churn
  # script, the structure-sharing commit-latency family at 128/1k/8k
  # background columns, and the batched admission replay warm (one engine
  # committing every decision), cold, and sequential (query() then
  # add_background(), publishing on every read), the Tier 1 / Tier 2
  # pricing oracles, the small Eq. 6 solves, the one-region
  # and sharded DCF runs plus the TDMA executor, the 500-node cold
  # topology and model build, the cold conflict-matrix builds, and the
  # cold and warm LP solves, and phase A on an undeliverable background;
  # the --require guards fail
  # the gate if any side of a comparison silently drops out of the suite.
  cmake --build "$BUILD" -j "$JOBS" --target perf_micro
  CHURN_JSON="$BUILD/bench_churn_ci.json"
  "$REPO/tools/bench_to_json.sh" "$CHURN_JSON" \
    'BM_ChurnReadmit|BM_CommitLatency|BM_BatchAdmission|BM_PricingHeuristic|BM_PricingExact|BM_JointBandwidthLp|BM_ScenarioTwoPipeline|BM_CsmaSimulatedSecond|BM_CsmaParallel|BM_TdmaSimulatedQuarterSecond|BM_TopologyBuild|BM_ConflictMatrixBuild|BM_SimplexRandom/64$|BM_MasterResolveRevised/40/10$|BM_PhaseAUndeliverable' \
    "$BUILD/bench/perf_micro"
  "$REPO/tools/bench_compare.py" "$REPO/BENCH_results.json" "$CHURN_JSON" \
    --require BM_ChurnReadmitIncremental --require BM_ChurnReadmitRebuild \
    --require BM_CommitLatency --require BM_BatchAdmissionWarm \
    --require BM_BatchAdmissionCold --require BM_BatchAdmissionSequential \
    --require BM_PricingHeuristic --require BM_PricingExact \
    --require BM_PricingExact/fig4_seed4 \
    --require BM_JointBandwidthLp \
    --require BM_ScenarioTwoPipeline --require BM_CsmaSimulatedSecond \
    --require BM_CsmaParallel --require BM_TdmaSimulatedQuarterSecond \
    --require BM_TopologyBuild/500 --require BM_ConflictMatrixBuild \
    --require BM_SimplexRandom/64 --require BM_MasterResolveRevised/40/10 \
    --require BM_PhaseAUndeliverable
  "$REPO/tools/bench_archive.py" "$CHURN_JSON" \
    --history "$REPO/BENCH_history" --label churn
fi

echo "== ci stage 6: perfbench self-tests + Fig. 4 golden tables, heavy-tail and memory guards =="
python3 "$REPO/perfbench/selftest.py"
for SEED in 3 4; do
  timeout 120 "$BUILD/tools/mrwsn" fig4 --seed "$SEED" > "$BUILD/fig4_seed$SEED.txt"
  sed -E 's/\([0-9.]+ s to draw and route\)/(X s to draw and route)/
          s/^(LP ground truth for [0-9]+ flows in )[0-9.]+ s$/\1X s/
          s/in [0-9.]+ s wall \([0-9]+ threads?\)/in X s wall (N threads)/' \
    "$BUILD/fig4_seed$SEED.txt" |
    diff -u "$REPO/tests/golden/fig4_seed$SEED.txt" -
done
python3 - "$BUILD/tools/mrwsn" <<'EOF'
import resource, subprocess, sys
subprocess.run([sys.argv[1], "fig4", "--nodes", "1000", "--seconds", "0.05",
                "--rts", "off"], check=True, stdout=subprocess.DEVNULL,
               timeout=120)
peak_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
print(f"fig4 --nodes 1000: peak RSS {peak_mib:.1f} MiB (limit 128 MiB)")
sys.exit(1 if peak_mib > 128.0 else 0)
EOF

echo "ci gate passed"
