#!/usr/bin/env bash
# Tier-1 gate in one command: configure, build and run the full ctest
# suite — first the plain build, then a Release build that must compile
# without a warning, then (unless PV_SKIP_SANITIZE=1) an ASan+UBSan tree,
# a standalone UBSan tree and a TSan tree running the concurrency suites,
# so warnings, memory errors, UB and data races fail loudly before
# review does.
#
# Usage: tools/run_tier1.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
jobs="$(nproc 2>/dev/null || echo 4)"

echo "=== tier 1: plain build + ctest ($build_dir) ==="
# Warnings are errors in the plain tree: the build is warning-free, so a
# new warning fails tier-1 instead of scrolling past.  (The sanitizer
# trees below keep the default.)
cmake -B "$build_dir" -S . -DPOWERVAR_WARNINGS_AS_ERRORS=ON >/dev/null
cmake --build "$build_dir" -j "$jobs"
# Includes the perf gate (label `perf`): bench_perf checks every row's
# hard contract and each gated ratio against the committed
# bench/BENCH_perf_baseline.json.
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

# The benchmark builds Release (-O3), and some of GCC's warnings
# (-Wrestrict, -Wmaybe-uninitialized in the AVX-512 headers) appear only
# at that optimisation level, so a Release tree of everything, the tests
# included, builds with warnings as errors too.  This pass only compiles;
# the plain tree runs the tests.
echo "=== tier 1: Release build, warnings as errors (${build_dir}-release) ==="
cmake -B "${build_dir}-release" -S . -DCMAKE_BUILD_TYPE=Release \
  -DPOWERVAR_WARNINGS_AS_ERRORS=ON >/dev/null
cmake --build "${build_dir}-release" -j "$jobs"

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
# racing threads), the thread pool, the collector's pollers journaling
# on the shared pool (Collector, and DefaultPool's collection started
# from a pool task) and the node-tap engine suites (test_meter_engine: faulted campaigns fan out at every
# thread count, while the clean rigs of EngineGrid, DriftingShapes and
# FleetSoA sit below the fan-out's work grain and run inline; FanoutGrain
# runs the sharded fleet provision, the batch fan-out and the live
# per-chunk fan-out with emission between barriers on clean campaigns
# above the grain, reconcile buckets and drifting shapes with per-worker
# run marks, and threads first reading a scenario's kept scope truth
# together).  TSan finds the races ASan cannot; the other deterministic
# numeric suites gain nothing from it, so the filter keeps this pass
# fast.
# Wall-time-sensitive gates are excluded as in the other trees.
echo "=== tier 1: TSan build + concurrency ctest (${build_dir}-tsan) ==="
cmake -B "${build_dir}-tsan" -S . -DPV_TSAN=ON >/dev/null
cmake --build "${build_dir}-tsan" -j "$jobs"
tsan_terms=(ThreadPool ParallelFor DefaultPool CampaignService
  ServiceChaos ScenarioCacheContention ServiceFairShare ServiceResume
  Collector StreamingEquivalence StreamingAssessment FleetEngineDifferential
  FleetSoA DriftingShapes FanoutGrain)
# A term that lists no test (its suite renamed or deleted) would silently
# drop that suite from this pass, so it fails tier-1 instead.
for term in "${tsan_terms[@]}"; do
  listed="$(ctest --test-dir "${build_dir}-tsan" -N -R "$term" -LE perf)"
  if grep -q '^Total Tests: 0$' <<<"$listed"; then
    echo "tier 1: TSan filter term '$term' matches no test" >&2
    exit 1
  fi
done
tsan_filter="$(IFS='|'; echo "${tsan_terms[*]}")"
ctest --test-dir "${build_dir}-tsan" --output-on-failure -j "$jobs" \
  -R "$tsan_filter" -LE perf

echo "=== tier 1: all green ==="
