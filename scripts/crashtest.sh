#!/usr/bin/env bash
# Crash-recovery drill with the real binaries, the CI counterpart of
# TestCrashRecoveryEquivalence.
#
# One fleetsim process generates deterministic telemetry (with an injected
# regression) and streams the identical batches to two durable workers:
#
#   control: ingests uninterrupted; its /scan response is the reference.
#   crash:   runs with fault-injected fsync delays (widening the kill
#            window), is SIGKILLed mid-stream and restarted — the client
#            retries every unacknowledged batch — then SIGKILLed again
#            (no graceful shutdown) so the state it finally serves comes
#            from WAL recovery alone.
#
# The two /scan responses must be identical modulo the worker's own name.
# Both workers are then recovered once more and swept through the
# coordinator (fbdetect -workers) over three URLs whose hash owner for the
# service is a port nothing listens on: the scan must move on to the
# recovered crash worker and report the regression.
# (A single generation feeds both workers because the simulator is not
# bit-deterministic across process runs.)
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
trap 'kill -9 $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

CONTROL_PORT="${CONTROL_PORT:-18091}"
CRASH_PORT="${CRASH_PORT:-18092}"
DEAD_PORT="${DEAD_PORT:-18093}" # nothing listens here: the sweep's dead owner
HOURS=9
SCAN_REQ='{"service":"fleetsim","scan_time":"2024-08-01T09:00:00Z"}'

echo "== building binaries"
go build -o "$WORK/worker" ./cmd/fbdetect-worker
go build -o "$WORK/fleetsim" ./cmd/fleetsim

wait_up() { # port
    for _ in $(seq 1 100); do
        if curl -sf "http://127.0.0.1:$1/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "worker on port $1 never came up" >&2
    return 1
}

scan() { # port outfile — normalizes the self-reported worker name
    curl -sf -X POST "http://127.0.0.1:$1/scan" -d "$SCAN_REQ" \
        | sed 's/"worker":"[^"]*"/"worker":"W"/' >"$2"
}

echo "== starting control and crash workers"
start_control_worker() {
    "$WORK/worker" -listen "127.0.0.1:$CONTROL_PORT" -data-dir "$WORK/control" \
        -wal-sync always &>>"$WORK/control.log" &
    CONTROL_PID=$!
}
start_control_worker
start_crash_worker() {
    "$WORK/worker" -listen "127.0.0.1:$CRASH_PORT" -data-dir "$WORK/crash" \
        -wal-sync always -fsync-delay 40ms &>>"$WORK/crash.log" &
    CRASH_PID=$!
    wait_up "$CRASH_PORT"
}
start_crash_worker
wait_up "$CONTROL_PORT"

echo "== streaming one generation to both workers"
"$WORK/fleetsim" -hours $HOURS -stream-steps 5 -regress 2 -seed 5 \
    -stream "http://127.0.0.1:$CONTROL_PORT,http://127.0.0.1:$CRASH_PORT" \
    &>"$WORK/stream.log" &
STREAM_PID=$!
sleep 1
echo "   SIGKILL crash worker (pid $CRASH_PID) with the stream in flight"
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
start_crash_worker
echo "   restarted crash worker (pid $CRASH_PID); stream retries until acknowledged"
if ! wait "$STREAM_PID"; then
    echo "stream failed to complete after restart:" >&2
    cat "$WORK/stream.log" >&2
    exit 1
fi
cat "$WORK/stream.log"

# No graceful shutdown: the state served next comes from recovery alone.
kill -9 "$CRASH_PID"
wait "$CRASH_PID" 2>/dev/null || true
start_crash_worker
grep -h "recovered" "$WORK/crash.log" | tail -1 || true

# WAL replay must land in the compressed chunked store, not a raw
# fallback: the final recovery's storage line has to report sealed chunks.
STORAGE_LINE="$(grep -h "sealed chunks" "$WORK/crash.log" | tail -1)"
echo "$STORAGE_LINE"
SEALED="$(echo "$STORAGE_LINE" | sed -n 's/.* \([0-9][0-9]*\) sealed chunks.*/\1/p')"
if [ -z "$SEALED" ] || [ "$SEALED" -eq 0 ]; then
    echo "FAIL: recovered worker reports no sealed chunks; replay did not reach chunked storage" >&2
    exit 1
fi

echo "== scanning both workers"
scan "$CONTROL_PORT" "$WORK/control.json"
scan "$CRASH_PORT" "$WORK/crash.json"

echo "== comparing /scan responses"
if ! grep -q '"change_point_time"' "$WORK/control.json"; then
    echo "FAIL: control scan reported no regression; the drill needs a non-trivial report" >&2
    cat "$WORK/control.json"
    exit 1
fi
if ! cmp "$WORK/control.json" "$WORK/crash.json"; then
    echo "FAIL: recovered worker's scan differs from the uninterrupted control" >&2
    echo "--- control"; cat "$WORK/control.json"
    echo "--- crash";   cat "$WORK/crash.json"
    exit 1
fi
echo "PASS: recovered scan identical to uninterrupted control ($(wc -c <"$WORK/control.json") bytes)"

# Coordinator drill: fbdetect -workers sweeps the service over control,
# a dead port and crash, in that ring order. fnv32a("fleetsim") % 3 == 1,
# so the owner is the dead port and the scan moves on to its ring peer,
# crash. A worker remembers what it already reported, so both workers are
# SIGKILLed and recovered from their WALs first; the sweep is then the
# first scan crash serves and must report the regression again.
echo "== sweeping the recovered workers through fbdetect -workers, dead owner first"
kill -9 "$CONTROL_PID" "$CRASH_PID" 2>/dev/null || true
wait "$CONTROL_PID" "$CRASH_PID" 2>/dev/null || true
start_control_worker
start_crash_worker
wait_up "$CONTROL_PORT"
if curl -s "http://127.0.0.1:$DEAD_PORT/healthz" >/dev/null 2>&1; then
    echo "FAIL: something listens on DEAD_PORT $DEAD_PORT; the drill needs a dead owner" >&2
    exit 1
fi
go run ./cmd/fbdetect \
    -workers "http://127.0.0.1:$CONTROL_PORT,http://127.0.0.1:$DEAD_PORT,http://127.0.0.1:$CRASH_PORT" \
    -services fleetsim -scan-time 2024-08-01T09:00:00Z >"$WORK/sweep.txt"
worker_scans() { # port — successful scans the worker has served since it started
    curl -sf "http://127.0.0.1:$1/metrics" | sed -n 's/^fbdetect_worker_scans_total \([0-9][0-9]*\)$/\1/p'
}
CRASH_SCANS="$(worker_scans "$CRASH_PORT")"
CONTROL_SCANS="$(worker_scans "$CONTROL_PORT")"
kill -9 "$CONTROL_PID" "$CRASH_PID" 2>/dev/null || true
cat "$WORK/sweep.txt"
REPORTED="$(sed -n 's/^\([0-9][0-9]*\) regression(s) reported:$/\1/p' "$WORK/sweep.txt")"
if ! grep -q '^scanned 1/1 service' "$WORK/sweep.txt" || [ -z "$REPORTED" ] || [ "$REPORTED" -lt 1 ]; then
    echo "FAIL: coordinator sweep must scan 1/1 services and report a regression" >&2
    exit 1
fi
if [ "$CRASH_SCANS" != 1 ] || [ "$CONTROL_SCANS" != 0 ]; then
    echo "FAIL: the dead owner's ring peer (crash) must serve the scan; crash served $CRASH_SCANS, control $CONTROL_SCANS" >&2
    exit 1
fi
echo "PASS: coordinator sweep skipped the dead owner, scanned 1/1 on crash and reported $REPORTED regression(s)"

# ---------------------------------------------------------------------------
# Control-plane drill: SIGKILL fbdetect-server mid-operation and require the
# journaled job to be requeued on restart and run to a terminal state.
echo "== building fbdetect-server"
go build -o "$WORK/server" ./cmd/fbdetect-server

SERVER_PORT="${SERVER_PORT:-18094}"
SBASE="http://127.0.0.1:$SERVER_PORT"
ADMIN_KEY="crashtest-admin"
start_server() {
    "$WORK/server" -listen "127.0.0.1:$SERVER_PORT" -data-dir "$WORK/server-data" \
        -admin-key "$ADMIN_KEY" -wal-sync always &>>"$WORK/server.log" &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "$SBASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "fbdetect-server never came up" >&2
    tail -20 "$WORK/server.log" >&2
    return 1
}

echo "== starting fbdetect-server and submitting a throttled backfill"
start_server
TENANT_KEY="$(curl -sf -X POST -H "Authorization: Bearer $ADMIN_KEY" \
    "$SBASE/admin/tenants" -d '{"name":"crashtest"}' \
    | sed 's/.*"key":"\([^"]*\)".*/\1/')"
OP_LOC="$(curl -sf -D - -o /dev/null -X POST -H "Authorization: Bearer $TENANT_KEY" \
    "$SBASE/operations" \
    -d '{"kind":"backfill","params":{"service":"svc","metric":"m","count":300,"batch":10,"throttle_ms":150}}' \
    | sed -n 's/^[Ll]ocation: *//p' | tr -d '\r')"
if [ -z "$OP_LOC" ]; then
    echo "FAIL: operation POST returned no Location" >&2
    exit 1
fi
sleep 1
echo "   SIGKILL fbdetect-server (pid $SERVER_PID) with $OP_LOC in flight"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

echo "== restarting fbdetect-server: the journaled operation must finish"
start_server
grep -q "requeued 1 in-flight operations" "$WORK/server.log" || {
    echo "FAIL: restart did not requeue the in-flight operation" >&2
    grep recovered "$WORK/server.log" >&2 || true
    exit 1
}
DEADLINE=$((SECONDS + 60))
while :; do
    OP="$(curl -sf -H "Authorization: Bearer $TENANT_KEY" "$SBASE$OP_LOC")"
    case "$OP" in
    *'"status":"succeeded"'*) break ;;
    *'"status":"failed"'*)
        echo "FAIL: recovered operation failed: $OP" >&2
        exit 1
        ;;
    esac
    if [ "$SECONDS" -ge "$DEADLINE" ]; then
        echo "FAIL: recovered operation never reached a terminal state: $OP" >&2
        exit 1
    fi
    sleep 1
done
kill -9 "$SERVER_PID" 2>/dev/null || true
echo "PASS: SIGKILLed server requeued its journaled operation and ran it to completion"
