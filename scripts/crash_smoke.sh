#!/usr/bin/env bash
# crash-smoke: the kill -9 gate for the WAL-backed daemon. A control
# blameitd ingests a one-day small-scale trace uninterrupted in memory;
# a second blameitd with -data-dir ingests the same trace bucket by
# bucket and is SIGKILLed (no drain, no warning) at several points, some
# on drained sealed-bucket boundaries and some right after a seal ack
# with the backend mid-flight. Every restart must replay its WAL cleanly
# (no inconsistencies, no degraded durability, no *.tmp left in the data
# directory: compaction only unlinks), the incarnation killed last must
# have compacted and unlinked something first, a restart at a drained
# boundary must read the /healthz it read before the kill (report count,
# last window and the latest report's health), and the survivor must
# serve a /v1/reports index, canonical report bodies and /v1/verdicts
# byte-identical to the control's. The seeded per-crash-point matrix lives in
# internal/server's TestCrashRecoverySIGKILL; this script is the
# shell-level end-to-end proof against real processes and a real disk.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${CRASH_SMOKE_PORT:-7033}"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill -9 "$DPID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/blameitd" ./cmd/blameitd
go build -o "$WORK/blameit-tracegen" ./cmd/blameit-tracegen

# World flags for both daemon arms and the matching trace producer.
# -warmup 0 so a one-day trace localizes from bucket 0.
WORLD=(-scale small -seed 42 -workload random -warmup 0 -days 1)
TGEN=(-scale small -seed 42 -workload random -days 1)

wait_up() {
  local up=""
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
    kill -0 "$DPID" 2>/dev/null || { echo "crash-smoke: blameitd died during startup" >&2; exit 1; }
    sleep 0.1
  done
  [ -n "$up" ] || { echo "crash-smoke: blameitd never answered /healthz" >&2; exit 1; }
}

healthz_field() { # healthz_field <json-int-field>
  curl -fsS "$BASE/healthz" | sed -n "s/.*\"$1\":\([0-9-]*\).*/\1/p"
}

# healthz_reports: the part of /healthz the report log answers — the
# report count, the last window's end and the latest report's health.
healthz_reports() {
  curl -fsS "$BASE/healthz" |
    sed -n 's/.*\("reports":[0-9]*\).*\("last_window_to":[0-9-]*\).*\("health":{[^}]*}\).*/\1 \2 \3/p'
}

# wait_drained <bucket>: the queue is empty AND the report of the last job
# window complete at <bucket> (cadence 3, no warmup) is published. An
# empty queue alone only says the last bucket was read; its step may
# still be running, and the report it publishes still missing.
wait_drained() {
  local due=$(( ($1 + 1) / 3 * 3 - 1 )) depth="" to=""
  for _ in $(seq 1 300); do
    depth=$(healthz_field queue_depth)
    to=$(healthz_field last_window_to)
    [ "${depth:-1}" = "0" ] && [ "${to:--1}" -ge "$due" ] && return 0
    sleep 0.2
  done
  echo "crash-smoke: backend failed to drain through bucket $1 (queue_depth=$depth last_window_to=$to)" >&2
  exit 1
}

# --- Control arm: uninterrupted, in-memory ---
"$WORK/blameitd" -addr "$ADDR" "${WORLD[@]}" &
DPID=$!
wait_up
"$WORK/blameit-tracegen" "${TGEN[@]}" -post "$BASE" >/dev/null
wait_drained 287
curl -fsS "$BASE/v1/reports" > "$WORK/index-control.json"
curl -fsS "$BASE/v1/verdicts" > "$WORK/verdicts-control.json"
for b in 119 200 287; do
  curl -fsS "$BASE/v1/reports/$b" > "$WORK/report$b-control.json"
done
kill -TERM "$DPID"; wait "$DPID" || true
DPID=""
grep -q '"from"' "$WORK/index-control.json" || { echo "crash-smoke: control produced no reports" >&2; exit 1; }

# --- Kill arm: same trace, WAL-backed, SIGKILLed along the way ---
# Split the trace into per-bucket JSONL chunks so the feeder controls
# exactly which records each daemon incarnation has acked.
"$WORK/blameit-tracegen" "${TGEN[@]}" -o "$WORK/trace.jsonl"
mkdir -p "$WORK/buckets"
awk -v dir="$WORK/buckets" 'match($0, /"bucket":[0-9]+/) {
  b = substr($0, RSTART+9, RLENGTH-9) + 0
  f = dir "/b" b ".jsonl"; print >> f; close(f)
}' "$WORK/trace.jsonl"

DATA="$WORK/wal"
start_wal_daemon() {
  "$WORK/blameitd" -addr "$ADDR" "${WORLD[@]}" -data-dir "$DATA" -fsync off -compact-every 16 &
  DPID=$!
  wait_up
  local bad
  bad=$(healthz_field recovery_inconsistent)
  [ "${bad:-0}" = "0" ] || { echo "crash-smoke: recovery_inconsistent=$bad after restart" >&2; exit 1; }
  if curl -fsS "$BASE/healthz" | grep -q '"degraded_durability":true'; then
    echo "crash-smoke: durability degraded after restart" >&2; exit 1
  fi
  if compgen -G "$DATA/*.tmp" >/dev/null; then
    echo "crash-smoke: *.tmp files in the data directory after restart" >&2; exit 1
  fi
}

# wait_unlinked: this incarnation's compaction has run and unlinked
# accepted segments. A pass starts on a goroutine once a report is
# journaled, so give it a moment.
wait_unlinked() {
  local passes="" unlinked=""
  for _ in $(seq 1 100); do
    passes=$(healthz_field compactions)
    unlinked=$(healthz_field last_compact_unlinked_bytes)
    [ "${passes:-0}" -gt 0 ] && [ "${unlinked:-0}" -gt 0 ] && return 0
    sleep 0.1
  done
  echo "crash-smoke: compactions=$passes last_compact_unlinked_bytes=$unlinked before the last kill: compaction unlinks nothing" >&2
  exit 1
}

feed_range() { # feed_range <from> <to-inclusive>
  local b
  for b in $(seq "$1" "$2"); do
    if [ -s "$WORK/buckets/b$b.jsonl" ]; then
      # Bounded retry on 429 backpressure; anything else is fatal.
      local tries=0
      until curl -fsS -o /dev/null --data-binary "@$WORK/buckets/b$b.jsonl" "$BASE/v1/ingest"; do
        tries=$((tries + 1))
        [ "$tries" -lt 50 ] || { echo "crash-smoke: ingest bucket $b kept failing" >&2; exit 1; }
        sleep 0.2
      done
    fi
    curl -fsS -o /dev/null -H 'Content-Type: application/json' \
      --data "{\"through\":$b}" "$BASE/v1/seal"
  done
}

start_wal_daemon
next=0
ki=0
# Kill points: after bucket 40 and 170 the queue is drained first (a
# sealed-bucket boundary), and the restart must read the same /healthz
# report state; after 120 and 230 the seal is acked but the backend is
# wherever the SIGKILL finds it.
for kb in 40 120 170 230; do
  feed_range "$next" "$kb"
  next=$((kb + 1))
  before=""
  if [ $((ki % 2)) = 0 ]; then
    wait_drained "$kb"
    before=$(healthz_reports)
    [ -n "$before" ] || { echo "crash-smoke: /healthz has no report state at bucket $kb" >&2; exit 1; }
  fi
  ki=$((ki + 1))
  [ "$kb" = 230 ] && wait_unlinked
  kill -9 "$DPID"; wait "$DPID" 2>/dev/null || true
  DPID=""
  start_wal_daemon
  if [ -n "$before" ]; then
    after=$(healthz_reports)
    [ "$after" = "$before" ] || {
      echo "crash-smoke: /healthz after the restart at bucket $kb reads '$after', before the kill '$before'" >&2; exit 1; }
  fi
done
feed_range "$next" 287
wait_drained 287

recovered=$(healthz_field recovered_reports)
[ "${recovered:-0}" -gt 0 ] || { echo "crash-smoke: final restart recovered no reports" >&2; exit 1; }

# The survivor must serve exactly what the uninterrupted control served.
curl -fsS "$BASE/v1/reports" > "$WORK/index-wal.json"
cmp -s "$WORK/index-control.json" "$WORK/index-wal.json" || {
  echo "crash-smoke: report index diverges from control after kill -9 recovery" >&2; exit 1; }
# /v1/verdicts is served from the report log's headers, which a restart
# takes from the regenerated reports: it must match too.
curl -fsS "$BASE/v1/verdicts" > "$WORK/verdicts-wal.json"
cmp -s "$WORK/verdicts-control.json" "$WORK/verdicts-wal.json" || {
  echo "crash-smoke: /v1/verdicts diverges from control after kill -9 recovery" >&2; exit 1; }
for b in 119 200 287; do
  curl -fsS "$BASE/v1/reports/$b" > "$WORK/report$b-wal.json"
  cmp -s "$WORK/report$b-control.json" "$WORK/report$b-wal.json" || {
    echo "crash-smoke: canonical report $b diverges from control" >&2; exit 1; }
done

# And still die cleanly when asked nicely.
kill -TERM "$DPID"
if ! wait "$DPID"; then
  echo "crash-smoke: blameitd exited non-zero on SIGTERM" >&2
  exit 1
fi
DPID=""
echo "crash-smoke: OK (4 kill -9 recoveries; index, verdicts + 3 canonical reports byte-identical; recovered_reports=$recovered)"
