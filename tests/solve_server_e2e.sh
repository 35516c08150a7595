#!/usr/bin/env bash
# End-to-end test for `dabs_cli serve`: drives the HTTP API with curl
# (submit / status / events stream / cancel), SIGKILLs the server
# mid-flight, restarts it with --resume, and asserts the journal shows
# every accepted job reaching `done` exactly once — no job lost, none
# duplicated.
#
# The cancel test runs AFTER the crash/resume invariant check on purpose:
# a cancelled job is deliberately non-terminal for resume (it re-enqueues,
# see job_journal.hpp), so mixing one into the kill window would make the
# "exactly one done per fingerprint" assertion meaningless.
#
# Usage: solve_server_e2e.sh <path-to-dabs_cli>
set -u

CLI=${1:?usage: solve_server_e2e.sh <path-to-dabs_cli>}
command -v curl >/dev/null 2>&1 || { echo "SKIP: curl not available" >&2; exit 77; }

WORK=$(mktemp -d "${TMPDIR:-/tmp}/dabs_solve_server.XXXXXX")
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() {
  echo "FAIL: $*" >&2
  [ -f "$WORK/server.err" ] && sed 's/^/  server: /' "$WORK/server.err" >&2
  exit 1
}

PORT=$(( 20000 + $$ % 20000 ))
BASE="http://127.0.0.1:$PORT/v1"
JOURNAL="$WORK/journal.jsonl"

job_body() {  # job_body <seed> <max_batches>
  printf '{"problem": "maxcut", "params": {"n": 24, "m": 60, "seed": %d}, "solver": "sa", "max_batches": %d, "seed": %d, "tag": "e2e%d"}' \
    "$1" "$2" "$1" "$1"
}

start_server() {  # start_server [extra args...]
  "$CLI" serve --port "$PORT" --jobs 2 --journal "$JOURNAL" "$@" \
    2>> "$WORK/server.err" &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died during startup"
    sleep 0.05
  done
  fail "server never answered /healthz"
}

wait_state() {  # wait_state <id> <state>
  for _ in $(seq 1 400); do
    case "$(curl -sf "$BASE/jobs/$1")" in *"\"state\":\"$2\""*) return 0 ;; esac
    sleep 0.05
  done
  fail "job $1 never reached state $2: $(curl -sf "$BASE/jobs/$1")"
}

# --- 0. unknown options are refused, never ignored -------------------------
# The server is one process; the retired multi-process flags must stop the
# start, not be dropped silently.  timeout turns a server that starts
# anyway into a failure instead of a hang.
for opt in "--shards 2" "--shard-of 0/2"; do
  rc=0
  # shellcheck disable=SC2086  # $opt is a flag and its value
  timeout 10 "$CLI" serve --port 0 $opt 2> "$WORK/refused.err" || rc=$?
  [ "$rc" -eq 2 ] || fail "serve $opt exited $rc, wanted 2"
  grep -q -- "${opt%% *}" "$WORK/refused.err" \
    || fail "serve $opt: message does not name the option"
done

# --- 1. basic lifecycle over HTTP ------------------------------------------
start_server

# An idle server sleeps: nothing may poll while no job is in flight.
cpu_ticks() { awk '{print $14 + $15}' "/proc/$SERVER_PID/stat"; }
if [ -r "/proc/$SERVER_PID/stat" ]; then
  T0=$(cpu_ticks); sleep 1; T1=$(cpu_ticks)
  HZ=$(getconf CLK_TCK)
  [ $(( (T1 - T0) * 5 )) -le "$HZ" ] \
    || fail "idle server used $((T1 - T0)) of $HZ CPU ticks in 1 s (limit 0.2 s)"
fi

curl -sf "$BASE/solvers"  | grep -q '"sa"'   || fail "/v1/solvers missing sa"
curl -sf "$BASE/problems" | grep -q 'maxcut' || fail "/v1/problems missing maxcut"

# A quick job: submit, poll to done, check the report and the event stream.
QUICK=$(curl -sf -X POST "$BASE/jobs" -d "$(job_body 1 20000)") \
  || fail "submit rejected"
QUICK_ID=$(printf '%s' "$QUICK" | sed -n 's/.*"job_id":\([0-9]*\).*/\1/p')
[ -n "$QUICK_ID" ] || fail "submit response had no job_id: $QUICK"
wait_state "$QUICK_ID" done
curl -sf "$BASE/jobs/$QUICK_ID" | grep -q '"verified":"true"' \
  || fail "done report missing verify extras"
curl -sf "$BASE/jobs/$QUICK_ID/events" | grep -q '"kind":"new_best"' \
  || fail "event stream had no new_best event"

# Error mapping stays HTTP-shaped.
[ "$(curl -s -o /dev/null -w '%{http_code}' "$BASE/jobs/99999")" = 404 ] \
  || fail "unknown id was not a 404"
[ "$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/jobs" -d '{bad')" = 400 ] \
  || fail "malformed body was not a 400"

# --- 2. SIGKILL mid-flight --------------------------------------------------
# Load up in-flight work, then kill -9: no handlers, no flushing.
for seed in 10 11 12 13 14 15; do
  curl -sf -X POST "$BASE/jobs" -d "$(job_body "$seed" 60000)" >/dev/null \
    || fail "bulk submit $seed rejected"
done
grep -q '"event":"started"' "$JOURNAL" 2>/dev/null || sleep 0.3
kill -9 "$SERVER_PID" 2>/dev/null
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""

# Accepted set = fingerprints of complete submitted records (a kill -9 can
# tear the final journal line; replay ignores torn lines, so must we).
grep '}$' "$JOURNAL" | sed -n 's/.*"event":"submitted".*"fp":"\([^"]*\)".*/\1/p' \
  | sort -u > "$WORK/accepted_fps.txt"
ACCEPTED=$(wc -l < "$WORK/accepted_fps.txt")
[ "$ACCEPTED" -eq 7 ] || fail "journal holds $ACCEPTED accepted jobs, wanted 7"

# --- 3. restart with --resume ----------------------------------------------
start_server --resume

for _ in $(seq 1 600); do
  DONE=$(grep '}$' "$JOURNAL" | grep -c '"event":"done"')
  [ "$DONE" -ge "$ACCEPTED" ] && break
  kill -0 "$SERVER_PID" 2>/dev/null || fail "resumed server died"
  sleep 0.1
done

# --- 4. journal invariants: nothing lost, nothing duplicated ----------------
grep '}$' "$JOURNAL" | sed -n 's/.*"event":"done".*"fp":"\([^"]*\)".*/\1/p' \
  | sort > "$WORK/done_all.txt"
sort -u "$WORK/done_all.txt" > "$WORK/done_unique.txt"

diff "$WORK/accepted_fps.txt" "$WORK/done_unique.txt" >&2 \
  || fail "accepted and done fingerprint sets differ (job lost or invented)"
cmp -s "$WORK/done_all.txt" "$WORK/done_unique.txt" \
  || fail "some job was marked done more than once across the runs"

curl -sf "$BASE/stats" | grep -q '"resumed":' || fail "/v1/stats missing resumed"

# --- 5. cancel on the live resumed server ----------------------------------
SLOW=$(curl -sf -X POST "$BASE/jobs" -d "$(job_body 2 4000000000)") \
  || fail "slow submit rejected"
SLOW_ID=$(printf '%s' "$SLOW" | sed -n 's/.*"job_id":\([0-9]*\).*/\1/p')
curl -sf -X DELETE "$BASE/jobs/$SLOW_ID" >/dev/null || fail "cancel rejected"
wait_state "$SLOW_ID" cancelled

kill -TERM "$SERVER_PID" 2>/dev/null
wait "$SERVER_PID" 2>/dev/null
SERVER_PID=""

echo "PASS: $ACCEPTED jobs accepted over HTTP, each done exactly once across kill -9 + --resume"
