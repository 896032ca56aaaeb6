#!/usr/bin/env bash
# Perf-regression gate: runs bench_perf_campaign, then compares the
# BENCH_perf.json it emits against the committed baseline.  Optionally
# also runs bench_service (the campaign-service cold/warm-cache bench)
# and compares its BENCH_service.json the same way.
#
# Usage: tools/check_perf.sh <bench-binary> <baseline-json> [out-json] \
#                            [service-bench] [service-baseline] [service-out] \
#                            [fleet-bench] [fleet-baseline] [fleet-out]
#
# Two classes of checks:
#   hard   engine/thread byte-identity (the bench binary exits nonzero on
#          its own if any report differs), the streaming engine being
#          at least as fast as eager after the noise allowance, and the
#          live path's peak RSS staying flat in campaign length (the
#          rss_flat growth ceiling — memory is not wall-time, so no
#          machine-noise allowance applies);
#   soft   per-scenario speedups may not fall below ALLOWANCE times the
#          committed baseline.  The allowance is deliberately generous
#          (0.5x by default, PV_PERF_ALLOWANCE to override): shared CI
#          boxes show +/-30% wall-time noise between runs, and this gate
#          exists to catch the engine regressing to the eager path
#          (a ~4x ratio collapsing to ~1x), not 10% drifts.
#
# Updating a baseline after an intentional perf change:
#   build/bench/bench_perf_campaign            # writes BENCH_perf.json
#   cp BENCH_perf.json bench/BENCH_perf_baseline.json
#   build/bench/bench_service                  # writes BENCH_service.json
#   cp BENCH_service.json bench/BENCH_service_baseline.json
#   build/bench/bench_perf_fleet               # writes BENCH_perf_fleet.json
#   cp BENCH_perf_fleet.json bench/BENCH_perf_fleet_baseline.json
# then commit the new baseline alongside the change that moved it
# (details in docs/performance.md).
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <bench-binary> <baseline-json> [out-json]" >&2
  exit 2
fi

bench_bin="$1"
baseline="$2"
out_json="${3:-BENCH_perf.json}"
allowance="${PV_PERF_ALLOWANCE:-0.5}"

if [[ ! -f "$baseline" ]]; then
  echo "check_perf: baseline $baseline missing" >&2
  exit 2
fi

# Fewer reps than the default keeps the gate fast; the bench takes the
# best-of so extra reps only tighten, never loosen, the numbers.
PV_PERF_JSON="$out_json" PV_PERF_REPS="${PV_PERF_REPS:-3}" "$bench_bin"

python3 - "$out_json" "$baseline" "$allowance" <<'EOF'
import json
import sys

out_path, base_path, allowance = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(out_path) as f:
    got = json.load(f)
with open(base_path) as f:
    base = json.load(f)

failures = []
for name, b in base["scenarios"].items():
    g = got["scenarios"].get(name)
    if g is None:
        failures.append(f"{name}: scenario missing from fresh run")
        continue
    if not g["identical"]:
        failures.append(f"{name}: engine/thread reports not byte-identical")
    # Speedup keys are gated only where the baseline entry carries them:
    # async_collect has no eager reference, so its entry reports wall
    # times and identity only.
    for key in ("speedup_1t", "speedup_8t"):
        if key not in b:
            continue
        if key not in g:
            failures.append(f"{name}: {key} missing from fresh run")
            continue
        # Hard floor: streaming must never lose to eager outright.
        if g[key] < 1.0:
            failures.append(
                f"{name}: {key} = {g[key]:.2f}x — streaming slower than eager")
        # Soft floor: generous fraction of the committed baseline ratio.
        floor = allowance * b[key]
        if g[key] < floor:
            failures.append(
                f"{name}: {key} = {g[key]:.2f}x, below {floor:.2f}x "
                f"(= {allowance} x baseline {b[key]:.2f}x)")

# Memory gate: the live streaming path must stay bounded — peak RSS flat
# in campaign length.  Growth is an absolute ceiling carried in the JSON
# (not a ratio of the baseline: a healthy baseline growth of ~0 MB would
# make any ratio-based floor vacuous or explosive).
rss = got.get("rss_flat")
if rss is None:
    failures.append("rss_flat: scenario missing from fresh run")
else:
    if not rss["identical"]:
        failures.append(
            "rss_flat: live long-run report not byte-identical to batch")
    ceiling = rss.get("growth_ceiling_mb", 16.0)
    if rss["growth_mb"] > ceiling:
        failures.append(
            f"rss_flat: peak RSS grew {rss['growth_mb']:.1f} MB over a "
            f"10x-longer campaign (ceiling {ceiling:.1f} MB) — the live "
            f"path is no longer bounded-memory")
    base_rss = base.get("rss_flat", {})
    print(f"  rss_flat: growth {rss['growth_mb']:.1f} MB over "
          f"{rss['samples_long']} samples "
          f"(baseline {base_rss.get('growth_mb', 0):.1f} MB, "
          f"ceiling {ceiling:.1f} MB), identical={rss['identical']}")

for name, g in got["scenarios"].items():
    if "speedup_1t" in g:
        head = (f"speedup@1 {g['speedup_1t']:.2f}x (baseline "
                f"{base['scenarios'].get(name, {}).get('speedup_1t', 0):.2f}x), "
                f"speedup@8 {g['speedup_8t']:.2f}x")
    else:
        head = (f"1t {g['stream1_ms']:.2f} ms, 8t {g['stream8_ms']:.2f} ms")
    print(f"  {name}: {head}, "
          f"peak rss {g.get('peak_rss_mb', 0):.1f} MB, "
          f"identical={g['identical']}")

if failures:
    print("check_perf: REGRESSION", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("check_perf: within allowance of committed baseline")
EOF

# ---- campaign-service bench (optional second triple) -----------------
if [[ $# -lt 4 ]]; then
  exit 0
fi
service_bin="$4"
service_baseline="${5:?service baseline path required with service bench}"
service_out="${6:-BENCH_service.json}"

if [[ ! -f "$service_baseline" ]]; then
  echo "check_perf: service baseline $service_baseline missing" >&2
  exit 2
fi

# The bench exits nonzero itself if any response is non-ok or the
# cold/warm cache counts are off (the skip-Provision hard contract).
PV_PERF_JSON="$service_out" PV_PERF_REPS="${PV_PERF_REPS:-3}" "$service_bin"

python3 - "$service_out" "$service_baseline" "$allowance" <<'EOF'
import json
import sys

out_path, base_path, allowance = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(out_path) as f:
    got = json.load(f)
with open(base_path) as f:
    base = json.load(f)

failures = []
for name, b in base["scenarios"].items():
    g = got["scenarios"].get(name)
    if g is None:
        failures.append(f"{name}: scenario missing from fresh run")
        continue
    # Hard: every response ok, deterministic cache accounting intact.
    if not g["all_ok"]:
        failures.append(f"{name}: non-ok responses in the bench batch")
    if not g["cache_contract"]:
        failures.append(
            f"{name}: cache counts off ({g['cache_misses']} misses, "
            f"{g['cache_hits']} hits for {g['requests']} requests)")

# The gated perf number is the warm-over-cold speedup: both halves run
# back-to-back under identical machine load, so the ratio is robust on
# noisy boxes where absolute campaigns/sec on a millisecond batch is not.
ratio = got["warm_over_cold"]
# Hard floor: the warm cache must never make the batch slower.
if ratio < 1.0:
    failures.append(
        f"warm_over_cold = {ratio:.2f}x — warm cache slower than cold")
# Soft floor: generous fraction of the committed baseline ratio.
floor = allowance * base["warm_over_cold"]
if ratio < floor:
    failures.append(
        f"warm_over_cold = {ratio:.2f}x, below {floor:.2f}x "
        f"(= {allowance} x baseline {base['warm_over_cold']:.2f}x)")

for name, g in got["scenarios"].items():
    b = base["scenarios"].get(name, {})
    print(f"  {name}: {g['campaigns_per_sec']:.1f} campaigns/s "
          f"(baseline {b.get('campaigns_per_sec', 0):.1f}), "
          f"{g['cache_hits']} hits / {g['cache_misses']} misses")
print(f"  warm_over_cold: {ratio:.2f}x "
      f"(baseline {base['warm_over_cold']:.2f}x)")

if failures:
    print("check_perf: SERVICE REGRESSION", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("check_perf: service bench within allowance of committed baseline")
EOF

# ---- fleet-scale bench (optional third triple) ------------------------
if [[ $# -lt 7 ]]; then
  exit 0
fi
fleet_bin="$7"
fleet_baseline="${8:?fleet baseline path required with fleet bench}"
fleet_out="${9:-BENCH_perf_fleet.json}"

if [[ ! -f "$fleet_baseline" ]]; then
  echo "check_perf: fleet baseline $fleet_baseline missing" >&2
  exit 2
fi

# The bench exits nonzero itself if any report differs across threads or
# from the eager reference, or a scenario breaches its peak-RSS ceiling.
PV_PERF_JSON="$fleet_out" PV_PERF_REPS="${PV_PERF_REPS:-3}" "$fleet_bin"

python3 - "$fleet_out" "$fleet_baseline" "$allowance" <<'EOF'
import json
import sys

out_path, base_path, allowance = sys.argv[1], sys.argv[2], float(sys.argv[3])
with open(out_path) as f:
    got = json.load(f)
with open(base_path) as f:
    base = json.load(f)

failures = []
for name, b in base["scenarios"].items():
    g = got["scenarios"].get(name)
    if g is None:
        failures.append(f"{name}: scenario missing from fresh run")
        continue
    if not g["identical"]:
        failures.append(
            f"{name}: reports differ across threads or from the reference")
    # Memory ceiling: absolute, carried in the JSON.
    ceiling = b.get("rss_ceiling_mb", 0.0)
    if ceiling > 0.0 and g["peak_rss_mb"] > ceiling:
        failures.append(
            f"{name}: peak RSS {g['peak_rss_mb']:.1f} MB above the "
            f"{ceiling:.0f} MB ceiling")
    # Engine over the eager reference at one thread, where the baseline
    # carries it (the reference is timed only where it finishes within
    # about a second).  Multi-thread ratios are not gated: on a box with
    # about one effective core they measure pool overhead, not scaling.
    key = "speedup_ref_1t"
    if key not in b:
        continue
    if key not in g:
        failures.append(f"{name}: {key} missing from fresh run")
        continue
    # Hard floor: the engine must never lose to the reference outright.
    if g[key] < 1.0:
        failures.append(
            f"{name}: {key} = {g[key]:.2f}x — engine slower than the "
            f"eager reference")
    # Soft floor: generous fraction of the committed baseline ratio.
    floor = allowance * b[key]
    if g[key] < floor:
        failures.append(
            f"{name}: {key} = {g[key]:.2f}x, below {floor:.2f}x "
            f"(= {allowance} x baseline {b[key]:.2f}x)")

for name, g in got["scenarios"].items():
    b = base["scenarios"].get(name, {})
    head = (f"x ref@1 {g['speedup_ref_1t']:.2f}x (baseline "
            f"{b.get('speedup_ref_1t', 0):.2f}x), "
            if "speedup_ref_1t" in g else "")
    print(f"  {name}: {head}engine@1 {g['eng1_ms']:.2f} ms, "
          f"engine@8 {g['eng8_ms']:.2f} ms, "
          f"{g['samples_per_sec']:.3g} samples/s, "
          f"peak rss {g['peak_rss_mb']:.1f} MB, identical={g['identical']}")

if failures:
    print("check_perf: FLEET REGRESSION", file=sys.stderr)
    for f_ in failures:
        print(f"  {f_}", file=sys.stderr)
    sys.exit(1)
print("check_perf: fleet bench within allowance of committed baseline")
EOF
