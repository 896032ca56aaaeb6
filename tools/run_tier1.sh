#!/usr/bin/env bash
# Tier-1 gate in one command: configure, build and run the full ctest
# suite — first the plain build, then (unless PV_SKIP_SANITIZE=1) a
# second build tree with PV_SANITIZE=ON so data races and UB in the
# concurrent collection path fail loudly before review does.
#
# Usage: tools/run_tier1.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== tier 1: plain build + ctest ($build_dir) ==="
cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$jobs"
# Includes the perf-smoke gate (label `perf`): bench_perf_campaign's
# engine/thread byte-identity contract plus tools/check_perf.sh's diff of
# BENCH_perf.json against the committed baseline.
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"
# Fleet smoke at the 1k-node scale: the engine-vs-reference and
# 1-vs-8-thread byte-identity contract on a real campaign (the 10k/100k
# scenarios stay in the full perf gate; the smoke keeps the plain tier
# fast).
PV_PERF_FLEET_SMOKE=1 PV_PERF_JSON="$build_dir/BENCH_perf_fleet_smoke.json" \
  "$build_dir/bench/bench_perf_fleet"

if [[ "${PV_SKIP_SANITIZE:-0}" == "1" ]]; then
  echo "=== tier 1: sanitizer pass skipped (PV_SKIP_SANITIZE=1) ==="
  exit 0
fi

echo "=== tier 1: sanitized build + ctest (${build_dir}-asan) ==="
cmake -B "${build_dir}-asan" -S . -DPV_SANITIZE=ON >/dev/null
cmake --build "${build_dir}-asan" -j "$jobs"
# Sanitized wall-time ratios are meaningless, so the perf gate is
# excluded here; its identity half is still covered by the plain pass
# and by test_meter_engine (which does run sanitized).
ctest --test-dir "${build_dir}-asan" --output-on-failure -j "$jobs" -LE perf

# Standalone UBSan, non-recoverable: ASan shifts layout and recoverable
# UBSan prints-and-continues, so this third tree is the one that turns
# any UB into a hard test failure.
echo "=== tier 1: UBSan build + ctest (${build_dir}-ubsan) ==="
cmake -B "${build_dir}-ubsan" -S . -DPV_UBSAN=ON >/dev/null
cmake --build "${build_dir}-ubsan" -j "$jobs"
ctest --test-dir "${build_dir}-ubsan" --output-on-failure -j "$jobs" -LE perf

# ThreadSanitizer tree for the genuinely concurrent surfaces: the
# campaign service (soak included), the thread pool, the bounded queue
# and the node-tap engine suite (test_meter_engine: the sharded fleet
# provision, the batch fan-out and the live per-chunk fan-out with
# emission between barriers, across thread counts).  TSan finds the
# races ASan cannot; the other deterministic numeric suites gain nothing
# from it, so the filter keeps this pass fast.
# Wall-time-sensitive gates are excluded as in the other trees.
echo "=== tier 1: TSan build + concurrency ctest (${build_dir}-tsan) ==="
cmake -B "${build_dir}-tsan" -S . -DPV_TSAN=ON >/dev/null
cmake --build "${build_dir}-tsan" -j "$jobs"
ctest --test-dir "${build_dir}-tsan" --output-on-failure -j "$jobs" \
  -R 'ThreadPool|ParallelFor|DefaultPool|BoundedQueue|CampaignService|ServiceChaos|Collector|StreamingEquivalence|StreamingAssessment|FleetEngineDifferential|FleetSoA|MeterEngine' \
  -LE perf

echo "=== tier 1: all green ==="
