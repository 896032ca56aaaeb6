#!/usr/bin/env bash
# Tier-1 gate in one command: configure, build and run the full ctest
# suite — first the plain build, then (unless PV_SKIP_SANITIZE=1) an
# ASan+UBSan tree, a standalone UBSan tree and a TSan tree running the
# concurrency suites, so memory errors, UB and data races fail loudly
# before review does.
#
# Usage: tools/run_tier1.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== tier 1: plain build + ctest ($build_dir) ==="
cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$jobs"
# Includes the perf gate (label `perf`): bench_perf checks every row's
# hard contract and each gated ratio against the committed
# bench/BENCH_perf_baseline.json.
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

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
# campaign service (soak, fair share with parked pool workers, resume
# with live workers, the scenario cache's single-flight build under
# racing threads), the thread pool, the bounded queue and the node-tap
# engine suite (test_meter_engine: the sharded fleet provision, the
# batch fan-out and the live per-chunk fan-out with emission between
# barriers, across thread counts).  TSan finds the
# races ASan cannot; the other deterministic numeric suites gain nothing
# from it, so the filter keeps this pass fast.
# Wall-time-sensitive gates are excluded as in the other trees.
echo "=== tier 1: TSan build + concurrency ctest (${build_dir}-tsan) ==="
cmake -B "${build_dir}-tsan" -S . -DPV_TSAN=ON >/dev/null
cmake --build "${build_dir}-tsan" -j "$jobs"
ctest --test-dir "${build_dir}-tsan" --output-on-failure -j "$jobs" \
  -R 'ThreadPool|ParallelFor|DefaultPool|BoundedQueue|CampaignService|ServiceChaos|ScenarioCacheContention|ServiceFairShare|ServiceResume|Collector|StreamingEquivalence|StreamingAssessment|FleetEngineDifferential|FleetSoA|MeterEngine' \
  -LE perf

echo "=== tier 1: all green ==="
