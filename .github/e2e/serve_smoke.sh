#!/usr/bin/env bash
# End-to-end smoke test of the serving stack: build the real binaries,
# train a model on a synthetic dataset, boot mvgserve, and drive every
# endpoint — /healthz, /v1/models, /predict, /predict_proba and the
# streaming NDJSON endpoint — asserting status codes and JSON shape.
# Run locally with: bash .github/e2e/serve_smoke.sh
set -euo pipefail

PORT="${E2E_PORT:-18080}"
BASE="http://127.0.0.1:${PORT}"
WORK="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

note() { printf '\n== %s ==\n' "$*"; }
die() { echo "e2e: FAIL: $*" >&2; exit 1; }

command -v jq >/dev/null || die "jq is required"

note "build binaries"
go build -o "$WORK/bin/tsgen" ./cmd/tsgen
go build -o "$WORK/bin/mvgcli" ./cmd/mvgcli
go build -o "$WORK/bin/mvgserve" ./cmd/mvgserve

note "generate synthetic dataset + train a model"
"$WORK/bin/tsgen" -out "$WORK/data" -dataset WarpedShapes -seed 3
mkdir -p "$WORK/models"
"$WORK/bin/mvgcli" \
  -train "$WORK/data/WarpedShapes_TRAIN" \
  -test "$WORK/data/WarpedShapes_TEST" \
  -save "$WORK/models/shapes.mvg" | tee "$WORK/train.log"
grep -q 'model saved to' "$WORK/train.log" || die "training did not save a model"

note "boot mvgserve"
"$WORK/bin/mvgserve" -models "$WORK/models" -addr "127.0.0.1:${PORT}" &
SERVE_PID=$!
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$SERVE_PID" 2>/dev/null || die "mvgserve exited during startup"
  sleep 0.2
  [ "$i" = 50 ] && die "mvgserve never became healthy"
done

# http_assert METHOD PATH EXPECTED_CODE [BODY_FILE] -> response body on stdout
http_assert() {
  local method="$1" path="$2" want="$3" body="${4:-}"
  local out="$WORK/resp.json" code
  if [ -n "$body" ]; then
    code=$(curl -s -o "$out" -w '%{http_code}' -X "$method" --data-binary "@$body" "$BASE$path")
  else
    code=$(curl -s -o "$out" -w '%{http_code}' -X "$method" "$BASE$path")
  fi
  [ "$code" = "$want" ] || die "$method $path returned $code, want $want: $(cat "$out")"
  cat "$out"
}

note "GET /healthz"
http_assert GET /healthz 200 | jq -e '.status == "ok" and .models == 1' >/dev/null \
  || die "/healthz shape"

note "GET /v1/models"
http_assert GET /v1/models 200 | jq -e \
  '.models | length == 1 and .[0].name == "shapes" and (.[0].features | length > 0)' >/dev/null \
  || die "/v1/models shape"

# One test series, label stripped — the model's exact input length.
SERIES_JSON=$(head -1 "$WORK/data/WarpedShapes_TEST" | cut -d, -f2- | jq -Rc 'split(",") | map(tonumber)')
N_CLASSES=2

note "POST /predict (single + batch)"
echo "{\"series\": $SERIES_JSON}" > "$WORK/req.json"
http_assert POST /v1/models/shapes/predict 200 "$WORK/req.json" \
  | jq -e '.model == "shapes" and (.class | type == "number")' >/dev/null || die "/predict single shape"
echo "{\"batch\": [$SERIES_JSON, $SERIES_JSON]}" > "$WORK/req.json"
http_assert POST /v1/models/shapes/predict 200 "$WORK/req.json" \
  | jq -e '.classes | length == 2 and all(type == "number")' >/dev/null || die "/predict batch shape"

note "POST /predict_proba"
echo "{\"series\": $SERIES_JSON}" > "$WORK/req.json"
http_assert POST /v1/models/shapes/predict_proba 200 "$WORK/req.json" \
  | jq -e ".proba | length == $N_CLASSES and (add > 0.99 and add < 1.01)" >/dev/null \
  || die "/predict_proba shape"

note "GET /metrics: lone singles flush at once"
# The single /predict and the single /predict_proba each found the model
# idle, so neither waited for the window; the batch form bypasses the
# coalescer.
curl -s "$BASE/metrics" > "$WORK/metrics.txt"
flushes() { awk -v s="mvgserve_coalescer_flushes_total{reason=\"$1\"}" '$1 == s {print $2}' "$WORK/metrics.txt"; }
[ "$(flushes idle)" = 2 ] || die "idle flushes = $(flushes idle), want 2"
[ "$(flushes window)" = 0 ] || die "window flushes = $(flushes window), want 0"
[ "$(flushes full)" = 0 ] || die "full flushes = $(flushes full), want 0"

note "POST /stream (NDJSON, 2 windows at hop=64)"
# Two test series back to back = 256 samples through a 128-window model:
# hop=64 must emit predictions at samples 128, 192 and 256, then done.
{ head -2 "$WORK/data/WarpedShapes_TEST" | cut -d, -f2- | tr ',' '\n'; } > "$WORK/stream.txt"
http_assert POST '/v1/models/shapes/stream?hop=64' 200 "$WORK/stream.txt" > "$WORK/stream_out.ndjson"
PRED_LINES=$(jq -s '[.[] | select(.class != null)] | length' "$WORK/stream_out.ndjson")
[ "$PRED_LINES" = 3 ] || die "/stream emitted $PRED_LINES predictions, want 3"
jq -se "[.[] | select(.class != null)] | all(.proba | length == $N_CLASSES)" \
  "$WORK/stream_out.ndjson" >/dev/null || die "/stream proba shape"
jq -se '.[-1].done == true and .[-1].samples == 256 and .[-1].predictions == 3' \
  "$WORK/stream_out.ndjson" >/dev/null || die "/stream terminal line"

note "error statuses"
echo '{"series": [1, 2, 3]}' > "$WORK/req.json"
http_assert POST /v1/models/shapes/predict 400 "$WORK/req.json" >/dev/null     # wrong length
http_assert POST /v1/models/nope/predict 404 "$WORK/req.json" >/dev/null       # unknown model
printf 'not-a-number\n' > "$WORK/bad.txt"
http_assert POST /v1/models/shapes/stream 400 "$WORK/bad.txt" >/dev/null       # malformed sample
http_assert POST '/v1/models/shapes/stream?hop=0' 400 "$WORK/bad.txt" >/dev/null # bad hop

note "graceful shutdown"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

# ---------------------------------------------------------------------------
# Overload behavior (docs/robustness.md): reboot with capacity dialed to the
# floor and assert the server sheds deterministically instead of queueing.
# ---------------------------------------------------------------------------
note "boot mvgserve with minimal capacity (-max-inflight 1 -max-queue 0 -max-streams-per-tenant 1)"
"$WORK/bin/mvgserve" -models "$WORK/models" -addr "127.0.0.1:${PORT}" \
  -max-inflight 1 -max-queue 0 -max-streams-per-tenant 1 -retry-after 7s &
SERVE_PID=$!
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" >/dev/null 2>&1; then break; fi
  kill -0 "$SERVE_PID" 2>/dev/null || die "overload mvgserve exited during startup"
  sleep 0.2
  [ "$i" = 50 ] && die "overload mvgserve never became healthy"
done

note "stream quota: second same-tenant stream is shed with 429 + Retry-After"
# Hold one dialogue open: stream the window, then keep the body open with a
# sleep so the session stays registered (-T streams stdin chunked).
{ head -1 "$WORK/data/WarpedShapes_TEST" | cut -d, -f2- | tr ',' '\n'; sleep 8; } \
  | curl -sN -o "$WORK/held_stream.ndjson" -X POST -T - "$BASE/v1/models/shapes/stream" &
HELD_PID=$!
for i in $(seq 1 50); do
  STREAMS=$(curl -s "$BASE/healthz" | jq -r '.streams')
  [ "$STREAMS" = 1 ] && break
  sleep 0.2
  [ "$i" = 50 ] && die "held stream never registered (streams=$STREAMS)"
done
printf '1\n' > "$WORK/one.txt"
CODE=$(curl -s -o "$WORK/shed_stream.json" -D "$WORK/shed_headers.txt" -w '%{http_code}' \
  -X POST --data-binary "@$WORK/one.txt" "$BASE/v1/models/shapes/stream")
[ "$CODE" = 429 ] || die "second same-tenant stream returned $CODE, want 429: $(cat "$WORK/shed_stream.json")"
grep -qi '^Retry-After: 7' "$WORK/shed_headers.txt" || die "429 lacks Retry-After: 7 header"
jq -e '.error | test("tenant")' "$WORK/shed_stream.json" >/dev/null || die "429 body: $(cat "$WORK/shed_stream.json")"

note "predict overload: parallel storm against 1 slot / 0 queue"
echo "{\"series\": $SERIES_JSON}" > "$WORK/req.json"
STORM=20
STORM_PIDS=""
for i in $(seq 1 "$STORM"); do
  curl -s -o /dev/null -w '%{http_code}\n' -X POST --data-binary "@$WORK/req.json" \
    "$BASE/v1/models/shapes/predict" > "$WORK/storm_$i.code" &
  STORM_PIDS="$STORM_PIDS $!"
done
# Wait for the storm curls and the held stream (its sleep ends the body,
# so the dialogue closes with a done line).
wait $STORM_PIDS "$HELD_PID" 2>/dev/null || true
cat "$WORK"/storm_*.code > "$WORK/storm.codes"
N_TOTAL=$(wc -l < "$WORK/storm.codes")
N_200=$(grep -c '^200$' "$WORK/storm.codes" || true)
N_429=$(grep -c '^429$' "$WORK/storm.codes" || true)
[ "$N_TOTAL" = "$STORM" ] || die "storm: $N_TOTAL responses, want $STORM"
[ "$((N_200 + N_429))" = "$STORM" ] || die "storm saw codes other than 200/429: $(sort "$WORK/storm.codes" | uniq -c)"
[ "$N_200" -ge 1 ] || die "storm: nothing was admitted"
echo "storm: $N_200 admitted, $N_429 shed"

note "shed accounting: client-observed 429s match mvgserve_shed_total"
SHED_TOTAL=$(curl -s "$BASE/metrics" | awk '$1 == "mvgserve_shed_total" {print $2}')
WANT_SHED=$((N_429 + 1)) # predict sheds + the stream quota rejection above
[ "$SHED_TOTAL" = "$WANT_SHED" ] || die "mvgserve_shed_total=$SHED_TOTAL, want $WANT_SHED"
curl -s "$BASE/metrics" | grep -q '^mvgserve_request_timeout_total ' || die "request_timeout_total series missing"
curl -s "$BASE/metrics" | grep -q 'mvgserve_stream_evicted_total{reason="idle"}' || die "stream_evicted_total series missing"
curl -s "$BASE/healthz" | jq -e ".ready == true and .shed_total == $WANT_SHED" >/dev/null \
  || die "healthz readiness shape: $(curl -s "$BASE/healthz")"

note "overload server shutdown"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo
echo "e2e: PASS"
