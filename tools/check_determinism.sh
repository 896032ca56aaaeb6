#!/usr/bin/env bash
# Guards the seeded-fault reproducibility contract: a faulted campaign run
# twice with the same seed must produce byte-identical output (all fault
# processes draw from (seed, stream) RNG streams, never from global state).
#
# Usage: check_determinism.sh /path/to/powervar
set -euo pipefail

powervar="${1:?usage: check_determinism.sh /path/to/powervar}"
args=(campaign --nodes 64 --cv 0.03 --level 1 --seed 42
      --faults harsh --dropout 0.1 --dead 2 --interval 10)

out_a="$("$powervar" "${args[@]}")"
out_b="$("$powervar" "${args[@]}")"

if [[ "$out_a" != "$out_b" ]]; then
  echo "FAIL: two identically seeded faulted campaigns diverged" >&2
  diff <(printf '%s\n' "$out_a") <(printf '%s\n' "$out_b") >&2 || true
  exit 1
fi

# The run must actually have degraded (otherwise this guards nothing).
if ! grep -q "data quality" <<<"$out_a"; then
  echo "FAIL: faulted campaign printed no data-quality block" >&2
  exit 1
fi

echo "OK: faulted campaign is deterministic under a fixed seed"

# ---------------------------------------------------------------------------
# Kill-and-resume contract: an asynchronous collection killed mid-campaign
# and resumed from its journal must produce a report byte-identical to an
# uninterrupted run of the same campaign.
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

collect_args=(collect --nodes 64 --cv 0.03 --level 1 --seed 42
              --blackhole 0.2 --drop 0.05 --interval 10 --threads 4)

clean_out="$("$powervar" "${collect_args[@]}" \
             --checkpoint "$tmpdir/clean.wal" 2>/dev/null)"

# The crashing run must exit with the dedicated simulated-crash status (3).
set +e
"$powervar" "${collect_args[@]}" --checkpoint "$tmpdir/crash.wal" \
    --crash-after 3 >"$tmpdir/crash.out" 2>/dev/null
crash_rc=$?
set -e
if [[ "$crash_rc" -ne 3 ]]; then
  echo "FAIL: --crash-after exited with $crash_rc, expected 3" >&2
  exit 1
fi
if [[ -s "$tmpdir/crash.out" ]]; then
  echo "FAIL: crashed collection printed a (partial) report" >&2
  exit 1
fi

resumed_out="$("$powervar" "${collect_args[@]}" \
               --checkpoint "$tmpdir/crash.wal" --resume 1 2>/dev/null)"

if [[ "$clean_out" != "$resumed_out" ]]; then
  echo "FAIL: kill-and-resume collection diverged from uninterrupted run" >&2
  diff <(printf '%s\n' "$clean_out") <(printf '%s\n' "$resumed_out") >&2 || true
  exit 1
fi

# The collection must actually have fought the flaky channel.
if ! grep -q "collection path" <<<"$clean_out"; then
  echo "FAIL: collect printed no collection-path quality block" >&2
  exit 1
fi

echo "OK: kill-and-resume collection is byte-identical to uninterrupted run"

# ---------------------------------------------------------------------------
# Byzantine-reconciliation contract: detection verdicts are a pure function
# of (seed, plan) — the metering fan-out runs on per-node RNG streams, so
# the worker thread count must not change a single output byte.
reconcile_args=(reconcile --nodes 96 --seed 5 --byzantine 0.05 --interval 10)

serial_out="$("$powervar" "${reconcile_args[@]}" --threads 1)"
fanned_out="$("$powervar" "${reconcile_args[@]}" --threads 4)"

if [[ "$serial_out" != "$fanned_out" ]]; then
  echo "FAIL: reconciled campaign diverged between 1 and 4 threads" >&2
  diff <(printf '%s\n' "$serial_out") <(printf '%s\n' "$fanned_out") >&2 || true
  exit 1
fi

# The run must actually have convicted liars (otherwise this guards nothing).
if ! grep -q "integrity (byzantine defense)" <<<"$serial_out"; then
  echo "FAIL: reconciled campaign printed no integrity block" >&2
  exit 1
fi
if ! grep -Eq "quarantined|corrected" <<<"$serial_out"; then
  echo "FAIL: byzantine campaign convicted nothing" >&2
  exit 1
fi

echo "OK: byzantine reconciliation is thread-count invariant"

# ---------------------------------------------------------------------------
# JSON-mode contract: the machine-readable rendering is as deterministic
# as the text one (stage traces included — wall clock stays out of the
# JSON), and both renderings describe the same campaign.
json_args=(campaign --nodes 64 --cv 0.03 --level 1 --seed 42
           --faults harsh --dropout 0.1 --dead 2 --interval 10
           --json --trace-stages)

json_a="$("$powervar" "${json_args[@]}")"
json_b="$("$powervar" "${json_args[@]}")"

if [[ "$json_a" != "$json_b" ]]; then
  echo "FAIL: two identically seeded --json campaigns diverged" >&2
  diff <(printf '%s\n' "$json_a") <(printf '%s\n' "$json_b") >&2 || true
  exit 1
fi
for key in '"schema":"powervar-assessment-v1"' '"submitted_power_w":' \
           '"data_quality":' '"stages":'; do
  if ! grep -qF "$key" <<<"$json_a"; then
    echo "FAIL: --json output lacks $key" >&2
    exit 1
  fi
done

# Text and JSON must agree on the submitted number: parse the human line
# ("submitted power:   27.43 kW") back to watts and compare with the JSON
# field to ~1% (the text is rounded to 4 significant digits).
text_out="$("$powervar" campaign --nodes 64 --cv 0.03 --level 1 --seed 42 \
            --faults harsh --dropout 0.1 --dead 2 --interval 10)"
text_w="$(awk '/^submitted power:/ {
  v = $3
  if ($4 == "kW") v *= 1e3
  else if ($4 == "MW") v *= 1e6
  print v
}' <<<"$text_out")"
json_w="$(grep -o '"submitted_power_w":[0-9.eE+-]*' <<<"$json_a" |
          head -1 | cut -d: -f2)"
if [[ -z "$text_w" || -z "$json_w" ]]; then
  echo "FAIL: could not extract submitted power from both renderings" >&2
  exit 1
fi
if ! awk -v t="$text_w" -v j="$json_w" \
     'BEGIN { d = (t - j) / j; if (d < 0) d = -d; exit !(d < 0.01) }'; then
  echo "FAIL: text ($text_w W) and JSON ($json_w W) renderings disagree" >&2
  exit 1
fi

echo "OK: JSON rendering is deterministic and agrees with the text report"

# ---------------------------------------------------------------------------
# Service-isolation contract at the CLI level: a campaign served through
# `powervar serve` — sharing a worker pool and the provision cache with
# neighbors — must embed an assessment byte-identical to the same
# campaign run solo through `campaign --json`, and the whole served batch
# must be deterministic across runs even with concurrent workers.
cat >"$tmpdir/serve_reqs.jsonl" <<'REQS'
{"schema":"powervar-request-v1","id":"d1","nodes":64,"cv":0.03,"level":1,"seed":42,"faults":"harsh","dropout":0.1,"dead":2,"interval":10}
{"schema":"powervar-request-v1","id":"d2","nodes":48,"level":2,"seed":7,"interval":10}
{"schema":"powervar-request-v1","id":"d3","nodes":64,"cv":0.03,"seed":42,"interval":30}
REQS

serve_a="$("$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" \
           --json --workers 4)"
serve_b="$("$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" \
           --json --workers 4)"
if [[ "$serve_a" != "$serve_b" ]]; then
  echo "FAIL: two identical served batches diverged" >&2
  diff <(printf '%s\n' "$serve_a") <(printf '%s\n' "$serve_b") >&2 || true
  exit 1
fi

# Extract d1's embedded assessment: everything after "assessment": up to
# the response line's closing brace (the assessment is the final field of
# an ok response, so stripping one trailing '}' recovers its exact bytes).
d1_line="$(grep -F '"id":"d1"' <<<"$serve_a")"
d1_assessment="${d1_line#*\"assessment\":}"
d1_assessment="${d1_assessment%\}}"
solo_json="$("$powervar" campaign --nodes 64 --cv 0.03 --level 1 --seed 42 \
             --faults harsh --dropout 0.1 --dead 2 --interval 10 --json)"
if [[ "$d1_assessment" != "$solo_json" ]]; then
  echo "FAIL: served assessment diverged from the solo campaign --json run" >&2
  diff <(printf '%s\n' "$solo_json") <(printf '%s\n' "$d1_assessment") >&2 || true
  exit 1
fi

# The batch must actually have exercised the cache (d3 shares d1's spec).
if ! grep -qF '"cache":{"hits":1,"misses":2' <<<"$serve_a"; then
  echo "FAIL: served batch did not report the expected cache accounting" >&2
  exit 1
fi

echo "OK: served campaigns are deterministic and byte-identical to solo runs"

# ---------------------------------------------------------------------------
# Drain-and-resume contract at the serve level: a batch interrupted by a
# drain (--drain-after K checkpoints every held request to the WAL) and
# finished by a fresh `serve --resume` must produce — as a set — exactly
# the response lines of the uninterrupted batch, byte for byte.  The
# resumed requests run under their original ids and seeds, so nothing in
# the output can betray that the service restarted.
clean_resp="$(grep -F '"code":"ok"' <<<"$serve_a" | sort)"

drain_out="$("$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" \
             --json --workers 2 --drain-after 1 \
             --checkpoint "$tmpdir/serve_drain.wal")"
if ! grep -qF '"checkpointed":2' <<<"$drain_out"; then
  echo "FAIL: drain run did not checkpoint the two held requests" >&2
  exit 1
fi
resume_out="$("$powervar" serve --resume "$tmpdir/serve_drain.wal" \
              --json --workers 2 2>/dev/null)"
if ! grep -qF '"completed":2' <<<"$resume_out"; then
  echo "FAIL: resume run did not complete the two checkpointed requests" >&2
  exit 1
fi
union_resp="$( { grep -F '"code":"ok"' <<<"$drain_out" || true
                 grep -F '"code":"ok"' <<<"$resume_out" || true; } | sort)"
if [[ "$union_resp" != "$clean_resp" ]]; then
  echo "FAIL: drain+resume responses diverged from the uninterrupted batch" >&2
  diff <(printf '%s\n' "$clean_resp") <(printf '%s\n' "$union_resp") >&2 || true
  exit 1
fi

# Same contract through the text renderer.
clean_text="$("$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" \
              --workers 2 | grep '^request .*: ok' | sort)"
drain_text="$("$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" \
              --workers 2 --drain-after 1 \
              --checkpoint "$tmpdir/serve_drain_text.wal")"
resume_text="$("$powervar" serve --resume "$tmpdir/serve_drain_text.wal" \
               --workers 2 2>/dev/null)"
union_text="$( { grep '^request .*: ok' <<<"$drain_text" || true
                 grep '^request .*: ok' <<<"$resume_text" || true; } | sort)"
if [[ "$union_text" != "$clean_text" ]]; then
  echo "FAIL: text-mode drain+resume diverged from the uninterrupted batch" >&2
  diff <(printf '%s\n' "$clean_text") <(printf '%s\n' "$union_text") >&2 || true
  exit 1
fi

echo "OK: serve drain-and-resume is byte-identical to the uninterrupted batch"

# ---------------------------------------------------------------------------
# Crash-mid-drain contract at the serve level: --crash-after K dies (exit
# 3) after journaling K of the held requests, but the journal on disk
# keeps a valid K-record prefix that a fresh --resume finishes — and the
# recovered response is a byte-exact member of the clean batch.
set +e
"$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" --json --workers 2 \
    --drain-after 1 --checkpoint "$tmpdir/serve_crash.wal" --crash-after 1 \
    >"$tmpdir/serve_crash.out" 2>/dev/null
crash_rc=$?
set -e
if [[ "$crash_rc" -ne 3 ]]; then
  echo "FAIL: serve --crash-after exited with $crash_rc, expected 3" >&2
  exit 1
fi
crash_resume="$("$powervar" serve --resume "$tmpdir/serve_crash.wal" \
                --json --workers 2 2>/dev/null)"
recovered="$(grep -F '"code":"ok"' <<<"$crash_resume" || true)"
if [[ -z "$recovered" || "$(wc -l <<<"$recovered")" -ne 1 ]]; then
  echo "FAIL: crash-mid-drain resume recovered $(wc -l <<<"$recovered") requests, expected 1" >&2
  exit 1
fi
if ! grep -qF "$recovered" <<<"$clean_resp"; then
  echo "FAIL: the crash-recovered response is not a member of the clean batch" >&2
  exit 1
fi

echo "OK: serve crash-mid-drain leaves a resumable journal prefix"

# ---------------------------------------------------------------------------
# Streaming front-end contract: --stream prints each response the moment
# it completes, tagged with its submission seq.  Completion order may
# vary with the scheduler, but the *set* of lines is deterministic — and
# stripping the seq tag must recover the batch-mode lines byte for byte.
stream_a="$("$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" \
            --json --workers 4 --stream | sort)"
stream_b="$("$powervar" serve --requests "$tmpdir/serve_reqs.jsonl" \
            --json --workers 4 --stream | sort)"
if [[ "$stream_a" != "$stream_b" ]]; then
  echo "FAIL: two identical streamed batches diverged as sets" >&2
  diff <(printf '%s\n' "$stream_a") <(printf '%s\n' "$stream_b") >&2 || true
  exit 1
fi
stream_resp="$(grep -F '"powervar-response-v1"' <<<"$stream_a" |
               sed 's/"seq":[0-9]*,//' | sort)"
batch_resp="$(grep -F '"powervar-response-v1"' <<<"$serve_a" | sort)"
if [[ "$stream_resp" != "$batch_resp" ]]; then
  echo "FAIL: seq-stripped streamed lines diverged from batch-mode lines" >&2
  diff <(printf '%s\n' "$batch_resp") <(printf '%s\n' "$stream_resp") >&2 || true
  exit 1
fi
if ! grep -qF '"seq":' <<<"$stream_a"; then
  echo "FAIL: streamed responses carried no seq tags" >&2
  exit 1
fi

echo "OK: streamed serve output is a deterministic seq-tagged set"

# ---------------------------------------------------------------------------
# Live-assessment contract: `campaign --live` streams partial assessment
# documents on a pinned virtual-time schedule, then a final document that
# must be byte-identical to the plain --json run of the same campaign —
# observing the campaign mid-run may not change a single reported byte.
# The whole transcript (partials included) is deterministic and
# thread-count invariant: partials are emitted between fan-out barriers
# from per-node RNG streams.
live_args=(campaign --nodes 64 --cv 0.03 --level 2 --seed 7 --interval 10
           --json --live --live-every 600)

live_a="$("$powervar" "${live_args[@]}")"
live_b="$("$powervar" "${live_args[@]}")"
live_t="$("$powervar" "${live_args[@]}" --threads 4)"

if [[ "$live_a" != "$live_b" ]]; then
  echo "FAIL: two identically seeded --live campaigns diverged" >&2
  diff <(printf '%s\n' "$live_a") <(printf '%s\n' "$live_b") >&2 || true
  exit 1
fi
if [[ "$live_a" != "$live_t" ]]; then
  echo "FAIL: --live transcript diverged between 1 and 4 threads" >&2
  diff <(printf '%s\n' "$live_a") <(printf '%s\n' "$live_t") >&2 || true
  exit 1
fi

# The run must actually have streamed partials (otherwise this guards a
# plain batch run), every partial must carry the live progress block, and
# the final line must not.
partials="$(head -n -1 <<<"$live_a")"
if [[ -z "$partials" ]]; then
  echo "FAIL: --live run emitted no partial documents" >&2
  exit 1
fi
if grep -qv '"live":' <<<"$partials"; then
  echo "FAIL: a partial document lacks the live progress block" >&2
  exit 1
fi
final_line="$(tail -n 1 <<<"$live_a")"
if grep -qF '"live":' <<<"$final_line"; then
  echo "FAIL: the final document still carries the live block" >&2
  exit 1
fi

# Headline byte-identity at the CLI: the final streamed line IS the batch
# document.
batch_line="$("$powervar" campaign --nodes 64 --cv 0.03 --level 2 --seed 7 \
              --interval 10 --json)"
if [[ "$final_line" != "$batch_line" ]]; then
  echo "FAIL: final --live document diverged from the plain --json run" >&2
  diff <(printf '%s\n' "$batch_line") <(printf '%s\n' "$final_line") >&2 || true
  exit 1
fi

# Same contract under degraded data: harsh faults + dead nodes exercise
# the whole-window live driver (corruption needs materialized windows),
# which must still finish on the batch engine's exact bytes.
faulted_live="$("$powervar" campaign --nodes 64 --cv 0.03 --level 1 --seed 42 \
                --faults harsh --dropout 0.1 --dead 2 --interval 10 \
                --json --live --live-every 900 | tail -n 1)"
faulted_batch="$("$powervar" campaign --nodes 64 --cv 0.03 --level 1 --seed 42 \
                 --faults harsh --dropout 0.1 --dead 2 --interval 10 --json)"
if [[ "$faulted_live" != "$faulted_batch" ]]; then
  echo "FAIL: faulted --live final document diverged from the batch run" >&2
  diff <(printf '%s\n' "$faulted_batch") <(printf '%s\n' "$faulted_live") >&2 || true
  exit 1
fi

echo "OK: live assessment partials are deterministic and the final line is the batch document"

# ---------------------------------------------------------------------------
# Chunk-walk contract: the node-tap engine walks every window in chunks
# (4096 samples by default; the CLI has no knob for it, so chunk sizes
# 37 vs 4096 are covered by test_meter_engine).  At --interval 0.2 a
# Level 3 window spans three chunks with a ragged tail, and --reconcile
# maps reconcile buckets across them.  The batch shape (each worker walks
# all chunks of its lanes) and the live shape (one chunk at a time across
# all lanes, emitting between chunks) must agree byte for byte.
chunk_args=(campaign --nodes 64 --cv 0.03 --level 3 --seed 5
            --interval 0.2 --reconcile 1 --json)

chunk_batch="$("$powervar" "${chunk_args[@]}")"
chunk_live_all="$("$powervar" "${chunk_args[@]}" --live --live-every 300)"
chunk_live="$(tail -n 1 <<<"$chunk_live_all")"
if [[ "$chunk_batch" != "$chunk_live" ]]; then
  echo "FAIL: chunk-stepped live run diverged from the batch run" >&2
  diff <(printf '%s\n' "$chunk_batch") <(printf '%s\n' "$chunk_live") >&2 || true
  exit 1
fi
# Mid-window emission proves the live run stepped the window's chunks.
if [[ "$(head -n -1 <<<"$chunk_live_all" | wc -l)" -lt 2 ]]; then
  echo "FAIL: multi-chunk live run emitted no mid-window partials" >&2
  exit 1
fi

echo "OK: multi-chunk windows give one result through the batch and live walks"

# ---------------------------------------------------------------------------
# Thread-count contract: the sharded fleet provision and the engine's
# fan-out (batch: one per campaign; live: one per chunk) must not move a
# byte — every lane is a pure function of its own node id and RNG
# streams.  Covers clean lanes with reconcile buckets and faulted lanes
# with dead and lying meters, batch and live.
for extra in "--reconcile 1" \
             "--faults harsh --dead 2 --byzantine 0.05 --reconcile 1"; do
  for live in "" "--live --live-every 600"; do
    # shellcheck disable=SC2206
    thread_args=(campaign --nodes 96 --cv 0.03 --level 1 --seed 5
                 --interval 10 --json $extra $live)
    serial="$("$powervar" "${thread_args[@]}")"
    for threads in 2 4; do
      fanned="$("$powervar" "${thread_args[@]}" --threads "$threads")"
      if [[ "$serial" != "$fanned" ]]; then
        echo "FAIL: campaign diverged between 1 and $threads threads" \
             "($extra $live)" >&2
        diff <(printf '%s\n' "$serial") <(printf '%s\n' "$fanned") >&2 || true
        exit 1
      fi
    done
  done
done

echo "OK: node-tap metering is thread-count invariant, batch and live"
