#!/usr/bin/env bash
# Golden-file gate for the assessment reports: the text rendering of every
# report block (assessment, data quality, collection, integrity) is pinned
# byte-for-byte by the committed CLI transcripts.  Any change to report
# wording, spacing or number formatting must update tests/golden/ in the
# same commit — render_text promises byte-identity with the historical
# string-built reports.
#
# Usage: check_goldens.sh /path/to/powervar /path/to/tests/golden
set -uo pipefail

powervar="${1:?usage: check_goldens.sh /path/to/powervar golden_dir}"
golden_dir="${2:?usage: check_goldens.sh /path/to/powervar golden_dir}"
failures=0
tmp=$(mktemp -d /tmp/pv_goldens.XXXXXX)
trap 'rm -rf "$tmp"' EXIT

# check <golden-file> -- <args...>
check() {
  local golden="$1"
  shift 2
  if ! "$powervar" "$@" >"$tmp/out.txt" 2>/dev/null; then
    echo "FAIL: $golden: command exited non-zero" >&2
    failures=$((failures + 1))
    return
  fi
  if ! diff -u "$golden_dir/$golden" "$tmp/out.txt" >"$tmp/diff.txt"; then
    echo "FAIL: $golden: output drifted from the committed golden:" >&2
    head -40 "$tmp/diff.txt" >&2
    failures=$((failures + 1))
    return
  fi
  echo "ok: $golden"
}

# Clean L2 campaign: assessment block only.
check campaign_clean_l2.txt \
  -- campaign --nodes 64 --cv 0.02 --level 2 --seed 7 --interval 10
# Faulted L1 campaign: assessment + data-quality block.
check campaign_faulted_l1.txt \
  -- campaign --nodes 64 --cv 0.03 --level 1 --seed 42 --faults harsh \
     --dropout 0.1 --dead 2 --interval 10
# Byzantine reconcile: assessment + integrity block.
check reconcile_byzantine.txt \
  -- reconcile --nodes 96 --seed 5 --byzantine 0.05 --interval 10
# Resilient async collect: assessment + collection + data-quality blocks.
check collect_resilient.txt \
  -- collect --nodes 64 --cv 0.03 --level 1 --seed 42 --blackhole 0.2 \
     --drop 0.05 --interval 10 --threads 4
# Integrated-meter collect: Level 3's GL4-integrated meters, a 180-sample
# window split into 25 seven-sample poll chunks plus a 5-sample tail, two
# dead meters.
check collect_integrated_l3.txt \
  -- collect --nodes 48 --cv 0.03 --level 3 --seed 11 --interval 10 \
     --chunk 70 --drop 0.05 --dead 2 --threads 2
# Live L2 campaign: two partial assessment documents on the pinned
# 600-virtual-second schedule plus the final document — pins the
# powervar-assessment-v1 live wire format (progress block, recent-window
# ring, sketch quantiles) byte-for-byte.
check campaign_live_l2.txt \
  -- campaign --nodes 48 --cv 0.02 --level 2 --seed 9 --interval 10 \
     --live --live-every 600 --json
# Service batch over the golden request file: three response lines plus
# the drain report, all JSON — pins the powervar-response-v1 and
# powervar-drain-v1 wire formats byte-for-byte (r3 shares r1's scenario
# spec, so the drain line also pins the cache accounting: 1 hit, 2
# misses).  Single worker keeps response production deterministic.
check serve_once.txt \
  -- serve --requests "$golden_dir/serve_requests.jsonl" --once --json \
     --workers 1
# Interrupted service batch: --drain-after 1 completes r1 and checkpoints
# r2/r3 to the WAL — pins the checkpointed response wording and the drain
# report's checkpoint accounting.  The follow-up resume run replays the
# WAL under the original ids/seeds, so its two assessments must carry the
# exact bytes of the uninterrupted serve_once.txt lines.
check serve_drain.txt \
  -- serve --requests "$golden_dir/serve_requests.jsonl" --json --workers 1 \
     --drain-after 1 --checkpoint "$tmp/serve_drain.wal"
check serve_resume.txt \
  -- serve --resume "$tmp/serve_drain.wal" --json --workers 1

if [[ "$failures" -ne 0 ]]; then
  echo "FAIL: $failures golden transcript(s) drifted" >&2
  echo "(if the change is intentional, regenerate tests/golden/ with the" >&2
  echo "commands in this script and commit the new transcripts)" >&2
  exit 1
fi
echo "OK: all report renderings match the committed goldens"
