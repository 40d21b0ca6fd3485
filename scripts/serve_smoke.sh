#!/usr/bin/env bash
# serve-smoke: boot blameitd, replay a one-day small-scale trace into it
# over HTTP with the tracegen loadgen, assert the read APIs serve
# verdicts/reports/metrics, then SIGTERM and require a clean drain
# (exit 0). This is the daemon's end-to-end liveness gate; the
# byte-equivalence gate lives in internal/server's tests.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:${SMOKE_PORT:-7031}"
BASE="http://$ADDR"
BIN="$(mktemp -d)"
DPID=""
cleanup() {
  [ -n "$DPID" ] && kill "$DPID" 2>/dev/null || true
  rm -rf "$BIN"
}
trap cleanup EXIT

go build -o "$BIN/blameitd" ./cmd/blameitd
go build -o "$BIN/blameit-tracegen" ./cmd/blameit-tracegen

# -warmup 0: localize from bucket 0 so a one-day trace yields reports.
"$BIN/blameitd" -addr "$ADDR" -scale small -warmup 0 -days 1 &
DPID=$!

up=""
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  kill -0 "$DPID" 2>/dev/null || { echo "serve-smoke: blameitd died during startup" >&2; exit 1; }
  sleep 0.1
done
[ -n "$up" ] || { echo "serve-smoke: blameitd never answered /healthz" >&2; exit 1; }

# Replay the matching trace (same default seeds) over HTTP; the loadgen
# seals the final bucket so the backend localizes everything.
"$BIN/blameit-tracegen" -scale small -days 1 -post "$BASE"

# Wait for the backend to consume the queue.
depth=""
for _ in $(seq 1 300); do
  depth=$(curl -fsS "$BASE/healthz" | sed -n 's/.*"queue_depth":\([0-9]*\).*/\1/p')
  [ "${depth:-1}" = "0" ] && break
  sleep 0.2
done
[ "${depth:-1}" = "0" ] || { echo "serve-smoke: backend failed to drain (queue_depth=$depth)" >&2; exit 1; }

reports=$(curl -fsS "$BASE/healthz" | sed -n 's/.*"reports":\([0-9]*\).*/\1/p')
[ "${reports:-0}" -gt 0 ] || { echo "serve-smoke: no reports published" >&2; exit 1; }

# The read APIs must serve: the verdict stream, the report index, one
# canonical report by bucket, and the metrics snapshot.
# (capture bodies before grepping: `curl | grep -q` races — grep exits on
# the first match and curl dies with EPIPE under pipefail)
curl -fsS "$BASE/v1/verdicts" >/dev/null
index=$(curl -fsS "$BASE/v1/reports")
grep -q '"from"' <<<"$index" || { echo "serve-smoke: report index is empty" >&2; exit 1; }
curl -fsS "$BASE/v1/reports/200" >/dev/null
snap=$(curl -fsS "$BASE/metrics")
grep -q 'server.ingest.records' <<<"$snap" || { echo "serve-smoke: metrics missing ingest counters" >&2; exit 1; }

# Keep one canonical report for the fleet phase's equivalence check.
curl -fsS "$BASE/v1/reports/200" > "$BIN/report200-raw.json"

# Graceful shutdown: SIGTERM must drain and exit 0.
kill -TERM "$DPID"
if ! wait "$DPID"; then
  echo "serve-smoke: blameitd exited non-zero on SIGTERM" >&2
  exit 1
fi
DPID=""

# Phase 2: the same day ingested entirely through the edge-aggregate
# path. A fresh daemon, the fleet mode of the loadgen POSTing per-agent
# partial batches to /v1/aggregates in bucket order, and the localization
# output must be byte-identical to the raw replay's.
"$BIN/blameitd" -addr "$ADDR" -scale small -warmup 0 -days 1 &
DPID=$!
up=""
for _ in $(seq 1 100); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then up=1; break; fi
  kill -0 "$DPID" 2>/dev/null || { echo "serve-smoke: blameitd died during fleet-phase startup" >&2; exit 1; }
  sleep 0.1
done
[ -n "$up" ] || { echo "serve-smoke: blameitd never answered /healthz (fleet phase)" >&2; exit 1; }

"$BIN/blameit-tracegen" -scale small -days 1 -fleet 2 -post "$BASE"

depth=""
for _ in $(seq 1 300); do
  depth=$(curl -fsS "$BASE/healthz" | sed -n 's/.*"queue_depth":\([0-9]*\).*/\1/p')
  [ "${depth:-1}" = "0" ] && break
  sleep 0.2
done
[ "${depth:-1}" = "0" ] || { echo "serve-smoke: fleet-fed backend failed to drain (queue_depth=$depth)" >&2; exit 1; }

# Every posted partial must have landed: 2 agents x 288 buckets queued,
# nothing deduplicated or rejected, and (above) the queue drained — its
# depth counts the aggregate feed's cells like any record.
fleetsnap=$(curl -fsS "$BASE/metrics")
counter() { sed -n "s/.*\"$1\": *\([0-9-]*\).*/\1/p" <<<"$fleetsnap"; }
partials=$(counter 'server\.aggregates\.partials')
[ "${partials:-0}" = "576" ] || { echo "serve-smoke: aggregate partials queued=$partials, want 576" >&2; exit 1; }
[ "$(counter 'server\.aggregates\.deduped')" = "0" ] || { echo "serve-smoke: unexpected aggregate dedup" >&2; exit 1; }
[ "$(counter 'server\.aggregates\.rejected_batches')" = "0" ] || { echo "serve-smoke: aggregate batches rejected" >&2; exit 1; }

# The fleet-fed run must publish the same canonical report bytes.
curl -fsS "$BASE/v1/reports/200" > "$BIN/report200-fleet.json"
cmp -s "$BIN/report200-raw.json" "$BIN/report200-fleet.json" || {
  echo "serve-smoke: fleet-fed report diverges from raw replay" >&2; exit 1; }

kill -TERM "$DPID"
if ! wait "$DPID"; then
  echo "serve-smoke: blameitd exited non-zero on SIGTERM (fleet phase)" >&2
  exit 1
fi
DPID=""
echo "serve-smoke: OK ($reports reports served; fleet phase byte-identical)"
