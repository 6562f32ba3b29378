#!/usr/bin/env bash
# End-to-end smoke test of the labeling service, used by `make serve-smoke`
# and the CI serve-smoke job:
#
#   1. build imgccd and imgcc, and start imgccd on a local port,
#   2. wait for /healthz to answer ok,
#   3. POST darpa_before.pgm (mode=grey&census=1) and diff the response
#      against the committed golden testdata/serve_darpa_census.json,
#   4. POST darpa_before.pgm (mode=grey&out=pgm) and cmp the label PGM
#      against `imgcc -stream -grey -band-rows 64 -out` on the same file
#      (eight bands, so the band seams and their forest take part): one
#      writer renders both, so the bytes must match,
#   5. exercise the backpressure path's headers are sane (a plain request
#      must NOT carry Retry-After),
#   6. scrape /metrics and validate every document through the schema
#      checker (cmd/metricscheck),
#   7. send SIGTERM while a slow-upload /label request is in flight: the
#      request must still complete 200 with the correct census (graceful
#      drain), and the process must exit 0 within its drain window.
#
# Needs: go, curl. Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${IMGCCD_ADDR:-127.0.0.1:18080}"
WORKDIR="$(mktemp -d)"
SERVER_PID=""
cleanup() {
    [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
    [ -n "$SERVER_PID" ] && wait "$SERVER_PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

echo "serve-smoke: building imgccd and imgcc"
go build -o "$WORKDIR/imgccd" ./cmd/imgccd
go build -o "$WORKDIR/imgcc" ./cmd/imgcc

echo "serve-smoke: starting imgccd on $ADDR"
"$WORKDIR/imgccd" -addr "$ADDR" -engines 2 -oversub 64 >"$WORKDIR/imgccd.log" 2>&1 &
SERVER_PID=$!

echo "serve-smoke: waiting for /healthz"
for i in $(seq 1 100); do
    if curl -sf "http://$ADDR/healthz" >"$WORKDIR/healthz.json" 2>/dev/null; then
        break
    fi
    if ! kill -0 "$SERVER_PID" 2>/dev/null; then
        echo "serve-smoke: imgccd died during startup:" >&2
        cat "$WORKDIR/imgccd.log" >&2
        exit 1
    fi
    sleep 0.1
done
grep -q '"status":"ok"' "$WORKDIR/healthz.json" || {
    echo "serve-smoke: /healthz did not answer ok: $(cat "$WORKDIR/healthz.json")" >&2
    exit 1
}

echo "serve-smoke: labeling darpa_before.pgm"
curl -sf --data-binary @darpa_before.pgm \
    "http://$ADDR/label?mode=grey&census=1" >"$WORKDIR/census.json"
diff -u testdata/serve_darpa_census.json "$WORKDIR/census.json" || {
    echo "serve-smoke: census response differs from the committed golden" >&2
    exit 1
}

echo "serve-smoke: comparing the label PGM with imgcc -stream"
curl -sf --data-binary @darpa_before.pgm \
    "http://$ADDR/label?mode=grey&out=pgm" >"$WORKDIR/serve_labels.pgm"
"$WORKDIR/imgcc" -stream -in darpa_before.pgm -grey -band-rows 64 -out "$WORKDIR/stream_labels.pgm" >/dev/null
cmp "$WORKDIR/serve_labels.pgm" "$WORKDIR/stream_labels.pgm" || {
    echo "serve-smoke: served label PGM differs from imgcc -stream -out" >&2
    exit 1
}

echo "serve-smoke: checking a clean response carries no Retry-After"
curl -sf -D "$WORKDIR/headers.txt" --data-binary @darpa_before.pgm \
    "http://$ADDR/label?mode=grey" >/dev/null
if grep -qi '^retry-after:' "$WORKDIR/headers.txt"; then
    echo "serve-smoke: 200 response unexpectedly carries Retry-After" >&2
    exit 1
fi

echo "serve-smoke: validating /metrics through the schema checker"
curl -sf "http://$ADDR/metrics" >"$WORKDIR/metrics.json"
go run ./cmd/metricscheck "$WORKDIR/metrics.json"

echo "serve-smoke: SIGTERM graceful drain with an in-flight request"
# Trickle the upload so the request is still in flight when SIGTERM lands
# (~256KB at 64KB/s spends ~4s inside the server's 10s drain window).
curl -sf --limit-rate 64K --data-binary @darpa_before.pgm \
    "http://$ADDR/label?mode=grey&census=1" >"$WORKDIR/drain.json" &
CURL_PID=$!
sleep 0.5 # let the request reach the server before the signal
kill -TERM "$SERVER_PID"
wait "$CURL_PID" || {
    echo "serve-smoke: in-flight request failed during graceful drain" >&2
    exit 1
}
diff -u testdata/serve_darpa_census.json "$WORKDIR/drain.json" || {
    echo "serve-smoke: drained request returned a wrong census" >&2
    exit 1
}
DRAIN_STATUS=0
wait "$SERVER_PID" || DRAIN_STATUS=$?
SERVER_PID=""
if [ "$DRAIN_STATUS" -ne 0 ]; then
    echo "serve-smoke: imgccd exited $DRAIN_STATUS after SIGTERM (want 0):" >&2
    cat "$WORKDIR/imgccd.log" >&2
    exit 1
fi

echo "serve-smoke: PASS"
