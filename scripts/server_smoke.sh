#!/usr/bin/env bash
# Control-plane smoke drill with the real binary, the CI counterpart of
# the internal/controlplane test suite:
#
#   1. boot fbdetect-server, register three tenants via the admin API
#   2. reject unauthenticated / wrong-key requests with 401
#   3. ingest as tenant A; prove tenant B cannot see A's series
#   4. upload folded profiles as tenant C (max 2 series): the one that
#      fits lands, the one adding a series draws 403, not a 500
#   5. drive a throttled async backfill to 202 + Location, poll the
#      operation honoring Retry-After
#   6. SIGKILL the server mid-job, restart it, and require the journaled
#      operation to be requeued and run to a terminal succeeded state
#      with no client involvement
#   7. prove one tenant's 429s don't touch another tenant
#
# Set SMOKE_LOG_DIR to keep the server logs (CI uploads them on failure).
set -euo pipefail

cd "$(dirname "$0")/.."
WORK="$(mktemp -d)"
cleanup() {
    kill -9 $(jobs -p) 2>/dev/null || true
    if [ -n "${SMOKE_LOG_DIR:-}" ]; then
        mkdir -p "$SMOKE_LOG_DIR"
        cp -f "$WORK"/*.log "$SMOKE_LOG_DIR"/ 2>/dev/null || true
    fi
    rm -rf "$WORK"
}
trap cleanup EXIT

PORT="${SERVER_PORT:-18093}"
BASE="http://127.0.0.1:$PORT"
ADMIN_KEY="smoke-admin-key"

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "== building fbdetect-server"
go build -o "$WORK/server" ./cmd/fbdetect-server

start_server() {
    "$WORK/server" -listen "127.0.0.1:$PORT" -data-dir "$WORK/data" \
        -admin-key "$ADMIN_KEY" -wal-sync always &>>"$WORK/server.log" &
    SERVER_PID=$!
    for _ in $(seq 1 100); do
        if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
        sleep 0.1
    done
    echo "server never came up; log tail:" >&2
    tail -20 "$WORK/server.log" >&2
    return 1
}

# status METHOD PATH KEY [BODY] — prints the HTTP status code.
status() {
    local method=$1 path=$2 key=$3 body=${4:-}
    local args=(-s -o /dev/null -w '%{http_code}' -X "$method" "$BASE$path")
    [ -n "$key" ] && args+=(-H "Authorization: Bearer $key")
    [ -n "$body" ] && args+=(-d "$body")
    curl "${args[@]}"
}

echo "== starting server"
start_server

echo "== registering three tenants"
register_tenant() { # name extra-quota-json
    curl -sf -X POST -H "Authorization: Bearer $ADMIN_KEY" "$BASE/admin/tenants" \
        -d "{\"name\":\"$1\",\"quotas\":$2}"
}
A_JSON="$(register_tenant team-a '{}')"
B_JSON="$(register_tenant team-b '{"rate_per_sec":1,"burst":2}')"
C_JSON="$(register_tenant team-c '{"max_series":2}')"
A_KEY="$(echo "$A_JSON" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')"
B_KEY="$(echo "$B_JSON" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')"
C_KEY="$(echo "$C_JSON" | sed -n 's/.*"key":"\([^"]*\)".*/\1/p')"
[ -n "$A_KEY" ] && [ -n "$B_KEY" ] && [ -n "$C_KEY" ] \
    || fail "tenant registration returned no key: $A_JSON / $B_JSON / $C_JSON"
echo "   tenants registered"

echo "== auth checks"
[ "$(status POST /ingest '' '{"metric":"web//cpu","time":"2026-08-08T12:00:00Z","value":1}')" = 401 ] \
    || fail "unauthenticated ingest not rejected with 401"
[ "$(status POST /ingest wrong-key '{"metric":"web//cpu","time":"2026-08-08T12:00:00Z","value":1}')" = 401 ] \
    || fail "wrong-key ingest not rejected with 401"
[ "$(status GET /admin/tenants "$A_KEY")" = 401 ] \
    || fail "tenant key unlocked the admin API"
echo "   401s enforced"

echo "== tenant A ingests; tenant B cannot see the series"
# Ten minutely points ending at the scan time.
NDJSON="$(for i in $(seq 0 9); do
    printf '{"metric":"web/host0/cpu","time":"2026-08-08T11:%02d:00Z","value":100}\n' $((50 + i))
done)"
[ "$(status POST /ingest "$A_KEY" "$NDJSON")" = 200 ] || fail "tenant A ingest rejected"
SCAN='{"service":"web","scan_time":"2026-08-08T12:00:00Z"}'
[ "$(status POST /scan "$B_KEY" "$SCAN")" = 404 ] \
    || fail "tenant B can scan tenant A's service (namespace leak)"
echo "   isolation holds"

echo "== /profiles: the series quota answers 403, not 500"
# profile BODY — posts folded text as tenant C; prints the status code,
# the response body in $WORK/profile.txt.
profile() {
    curl -s -o "$WORK/profile.txt" -w '%{http_code}' -X POST \
        -H "Authorization: Bearer $C_KEY" -H 'Content-Type: text/plain' \
        "$BASE/profiles?service=web&time=2026-08-08T12:00:00Z" --data-binary "$1"
}
# Two subroutines (main, render): exactly the quota.
CODE="$(profile $'main;render 3\nmain 1\n')"
[ "$CODE" = 200 ] || fail "in-quota profile answered $CODE: $(cat "$WORK/profile.txt")"
grep -q '"subroutines":2' "$WORK/profile.txt" \
    || fail "in-quota profile did not resolve to 2 subroutines: $(cat "$WORK/profile.txt")"
# A third subroutine (encode) would be a third series.
CODE="$(profile $'main;render 3\nmain;encode 1\n')"
[ "$CODE" = 403 ] || fail "over-quota profile answered $CODE, want 403: $(cat "$WORK/profile.txt")"
echo "   200 in quota, 403 over it"

echo "== async backfill: 202 + Location, then SIGKILL mid-job"
OP_RESP_HEADERS="$WORK/op-headers.txt"
OP_BODY="$(curl -sf -D "$OP_RESP_HEADERS" -X POST -H "Authorization: Bearer $A_KEY" \
    "$BASE/operations" \
    -d '{"kind":"backfill","params":{"service":"web","metric":"cpu","entity":"host1","count":300,"batch":10,"throttle_ms":150,"step_at":200,"factor":1.2}}')"
grep -q "^HTTP/.* 202" "$OP_RESP_HEADERS" || fail "operation POST did not answer 202: $(cat "$OP_RESP_HEADERS")"
LOCATION="$(sed -n 's/^[Ll]ocation: *//p' "$OP_RESP_HEADERS" | tr -d '\r')"
[ -n "$LOCATION" ] || fail "202 without Location header"
echo "   accepted: $LOCATION"

sleep 1  # let the job start (300 points / 10 per batch * 150ms ≈ 4.5s run)
RUNNING="$(curl -sf -H "Authorization: Bearer $A_KEY" "$BASE$LOCATION")"
echo "$RUNNING" | grep -q '"status":"\(pending\|running\)"' \
    || fail "operation not in flight before the kill: $RUNNING"

echo "   SIGKILL server (pid $SERVER_PID) with the backfill running"
kill -9 "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true

echo "== restart: journaled operation must recover and finish"
start_server
grep -q "requeued 1 in-flight operations" "$WORK/server.log" \
    || fail "restart log does not report the requeued operation: $(grep recovered "$WORK/server.log" | tail -2)"

# Poll the same Location, honoring Retry-After, until terminal.
DEADLINE=$((SECONDS + 60))
while :; do
    RESP_HEADERS="$WORK/poll-headers.txt"
    OP="$(curl -sf -D "$RESP_HEADERS" -H "Authorization: Bearer $A_KEY" "$BASE$LOCATION")" \
        || fail "polling $LOCATION failed after restart"
    case "$OP" in
    *'"status":"succeeded"'*)
        echo "   operation succeeded: $(echo "$OP" | sed -n 's/.*"result":\({[^}]*}\).*/\1/p')"
        break
        ;;
    *'"status":"failed"'*)
        fail "recovered operation failed: $OP"
        ;;
    esac
    [ "$SECONDS" -lt "$DEADLINE" ] || fail "operation never reached a terminal state: $OP"
    RETRY="$(sed -n 's/^[Rr]etry-[Aa]fter: *//p' "$RESP_HEADERS" | tr -d '\r')"
    sleep "${RETRY:-1}"
done

# The recovered + re-run backfill must have landed the series durably.
[ "$(status POST /scan "$A_KEY" "$SCAN")" = 200 ] || fail "tenant A scan failed after recovery"

echo "== rate-limit isolation: B draws 429s, A keeps flowing"
PT='{"metric":"web/host0/cpu","time":"2026-08-08T12:01:00Z","value":100}'
SAW_429=0
for _ in $(seq 1 6); do
    CODE="$(curl -s -o /dev/null -D "$WORK/limit-headers.txt" -w '%{http_code}' \
        -X POST -H "Authorization: Bearer $B_KEY" "$BASE/ingest" -d "$PT")"
    if [ "$CODE" = 429 ]; then
        SAW_429=1
        grep -qi "^retry-after:" "$WORK/limit-headers.txt" \
            || fail "429 carried no Retry-After hint: $(cat "$WORK/limit-headers.txt")"
        break
    fi
done
[ "$SAW_429" = 1 ] || fail "tenant B (rate 1/s, burst 2) never drew a 429 across 6 rapid requests"
[ "$(status POST /ingest "$A_KEY" "$PT")" = 200 ] \
    || fail "tenant A rejected while tenant B is rate-limited (bucket not isolated)"
echo "   429 + Retry-After on B only"

kill -9 "$SERVER_PID" 2>/dev/null || true
echo "PASS: control-plane smoke — auth, isolation, profile quota, async job crash recovery, rate limits"
