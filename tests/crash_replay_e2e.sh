#!/usr/bin/env bash
# Crash-replay integration test for `dabs_cli batch --journal --resume`.
#
#   1. Run a reference batch (no journal) to learn the expected fingerprint
#      set.
#   2. Start the same batch with a journal and SIGKILL it mid-flight — the
#      hardest crash there is: no handlers, no flushing, no goodbyes.
#   3. Re-run with --resume until the batch completes.
#   4. Check the contract JobLedger documents: the final journal holds
#      exactly one done/failed record per job, and the union of done
#      reports equals the reference set (nothing lost).  Reports are
#      at-least-once — each is written before its terminal record — so a
#      job may be reported by both runs only if the kill landed between
#      its report and its record, i.e. the journal copied right after the
#      kill has no terminal record for it.
#
# Usage: crash_replay_e2e.sh <path-to-dabs_cli>
set -u

CLI=${1:?usage: crash_replay_e2e.sh <path-to-dabs_cli>}
WORK=$(mktemp -d "${TMPDIR:-/tmp}/dabs_crash_replay.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# Problem-generator jobs: hermetic (no model files), long enough that a
# mid-flight kill lands while work is genuinely outstanding.  Distinct
# seeds make every fingerprint unique — no "#N" suffixes to reason about.
JOBS="$WORK/jobs.jsonl"
for i in $(seq 0 11); do
  printf '{"problem": "maxcut", "params": {"n": 24, "m": 60, "seed": %d}, "solver": "sa", "max_batches": 60000, "seed": %d, "tag": "cr%d"}\n' \
    "$((500 + i))" "$i" "$i" >> "$JOBS"
done

fingerprints() {
  # One report object per line; every report carries its fingerprint.
  sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p' "$@" | sort
}

# --- 1. reference: uninterrupted run --------------------------------------
"$CLI" batch "$JOBS" --jobs 2 > "$WORK/reference.jsonl" 2> "$WORK/reference.err" \
  || fail "reference run exited $? ($(cat "$WORK/reference.err"))"
fingerprints "$WORK/reference.jsonl" > "$WORK/expected.txt"
[ "$(wc -l < "$WORK/expected.txt")" -eq 12 ] || fail "reference run produced $(wc -l < "$WORK/expected.txt") fingerprints, wanted 12"

# --- 2. journaled run, SIGKILLed mid-flight -------------------------------
JOURNAL="$WORK/journal.jsonl"
"$CLI" batch "$JOBS" --jobs 2 --journal "$JOURNAL" > "$WORK/run1.jsonl" 2> "$WORK/run1.err" &
VICTIM=$!
# Kill once the journal shows real progress (at least one job started) so
# the crash lands mid-batch, not before or after the interesting window.
for _ in $(seq 1 200); do
  if [ -f "$JOURNAL" ] && grep -q '"event":"started"' "$JOURNAL"; then
    break
  fi
  if ! kill -0 "$VICTIM" 2>/dev/null; then
    break  # finished before we could kill it: resume is then a no-op
  fi
  sleep 0.05
done
kill -9 "$VICTIM" 2>/dev/null
wait "$VICTIM" 2>/dev/null
[ -f "$JOURNAL" ] || fail "journaled run never created the journal"
cp "$JOURNAL" "$WORK/journal_at_kill.jsonl"

# --- 3. resume -------------------------------------------------------------
# Exit 0 from a --resume pass means every job that was not already terminal
# in the journal ran to completion, so one clean pass finishes the set.
"$CLI" batch "$JOBS" --jobs 2 --journal "$JOURNAL" --resume \
  > "$WORK/resume1.jsonl" 2> "$WORK/resume1.err" \
  || fail "resume exited $? ($(cat "$WORK/resume1.err"))"

# --- 4. the contract ------------------------------------------------------
terminal_fps() {  # complete done/failed records; a torn last line is not one
  grep -h '}$' "$@" | sed -n 's/.*"event":"\(done\|failed\)".*"fp":"\([^"]*\)".*/\2/p' | sort
}
done_reports() {  # only completed lines: the torn run1 tail may be partial
  grep -h '"status":"done"' "$@" | sed -n 's/.*"fingerprint":"\([^"]*\)".*/\1/p' | sort
}
terminal_fps "$JOURNAL" > "$WORK/terminal.txt"
diff "$WORK/expected.txt" "$WORK/terminal.txt" >&2 \
  || fail "the journal does not hold exactly one terminal record per job"
done_reports "$WORK/run1.jsonl" "$WORK/resume1.jsonl" | sort -u > "$WORK/reported.txt"
diff "$WORK/expected.txt" "$WORK/reported.txt" >&2 \
  || fail "resumed fingerprint set differs from the uninterrupted reference"
for f in run1 resume1; do
  [ -z "$(done_reports "$WORK/$f.jsonl" | uniq -d)" ] \
    || fail "$f.jsonl reports some job done twice"
done
comm -12 <(done_reports "$WORK/run1.jsonl") <(done_reports "$WORK/resume1.jsonl") \
  | comm -12 - <(terminal_fps "$WORK/journal_at_kill.jsonl") > "$WORK/dup.txt"
[ ! -s "$WORK/dup.txt" ] \
  || fail "re-reported jobs that were already terminal at the kill: $(cat "$WORK/dup.txt")"

echo "PASS: 12/12 fingerprints recovered across crash + resume"
