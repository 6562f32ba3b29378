#!/usr/bin/env bash
# End-to-end crash/resume smoke test of the out-of-core streaming
# pipeline's checkpointing, used by `make crash-smoke` and the CI
# crash-smoke job:
#
#   1. generate the 64x70000 striped PGM the stream smoke uses (a known
#      4480-component answer),
#   2. reference run: label it uninterrupted, keeping the label PGM and
#      the deterministic census JSON,
#   3. crashed run: the same labeling with -checkpoint, paced by the
#      IMGCC_STREAM_STALL_BAND hook so the census pass parks at a known
#      band, then kill -9 the process mid-run once a checkpoint record
#      exists — and assert the interrupted run left no partial -out or
#      -census-json at the target paths, and that the surviving record is
#      smaller than 4 KiB: it holds the frontier of open components (at
#      most 32 stripes here), not every component seen so far,
#   4. resume run: -resume from the surviving checkpoint, assert it
#      reports the resumed band, and byte-compare its census JSON and
#      label PGM against the reference — crash recovery must be exact,
#      not approximate.
#
# Needs: go. Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR="$(mktemp -d)"
cleanup() { rm -rf "$WORKDIR"; }
trap cleanup EXIT

echo "crash-smoke: building imgcc and genimages"
go build -o "$WORKDIR/imgcc" ./cmd/imgcc
go build -o "$WORKDIR/genimages" ./cmd/genimages

echo "crash-smoke: generating a 64x70000 striped PGM"
"$WORKDIR/genimages" -stream -rows 70000 -cols 64 -period 500 \
    -out "$WORKDIR/tall.pgm" >/dev/null

echo "crash-smoke: reference (uninterrupted) run"
"$WORKDIR/imgcc" -stream -in "$WORKDIR/tall.pgm" -band-rows 4096 -top 3 \
    -out "$WORKDIR/ref.pgm" -census-json "$WORKDIR/ref.json" >/dev/null

echo "crash-smoke: starting a checkpointed run paced to stall at band 12"
CKPT="$WORKDIR/run.ckpt"
IMGCC_STREAM_STALL_BAND=12 IMGCC_STREAM_STALL_MS=60000 \
    "$WORKDIR/imgcc" -stream -in "$WORKDIR/tall.pgm" -band-rows 4096 -top 3 \
    -checkpoint "$CKPT" -checkpoint-every 4 \
    -out "$WORKDIR/crashed.pgm" -census-json "$WORKDIR/crashed.json" \
    >/dev/null 2>&1 &
PID=$!

# Wait for a checkpoint record to land (the run itself is parked at band
# 12 for 60s, far longer than this loop), then kill -9 mid-run.
for _ in $(seq 1 400); do
    [ -f "$CKPT" ] && break
    kill -0 "$PID" 2>/dev/null || { echo "crash-smoke: run died before checkpointing" >&2; exit 1; }
    sleep 0.05
done
[ -f "$CKPT" ] || { echo "crash-smoke: no checkpoint record appeared" >&2; exit 1; }
sleep 0.2 # let the cadence advance past the first record
echo "crash-smoke: kill -9 the streaming run"
kill -9 "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

for f in "$WORKDIR/crashed.pgm" "$WORKDIR/crashed.json"; do
    if [ -e "$f" ]; then
        echo "crash-smoke: killed run left a file at the target path $f" >&2
        exit 1
    fi
done

RECORD_BYTES=$(wc -c < "$CKPT")
echo "crash-smoke: surviving checkpoint record holds $RECORD_BYTES bytes"
if [ "$RECORD_BYTES" -ge 4096 ]; then
    echo "crash-smoke: checkpoint record should stay under 4 KiB on a 64-column image" >&2
    exit 1
fi

echo "crash-smoke: resuming from the checkpoint"
"$WORKDIR/imgcc" -stream -in "$WORKDIR/tall.pgm" -band-rows 4096 -top 3 \
    -checkpoint "$CKPT" -resume \
    -out "$WORKDIR/resumed.pgm" -census-json "$WORKDIR/resumed.json" \
    | tee "$WORKDIR/resume.out"
grep -q 'resumed from band' "$WORKDIR/resume.out" || {
    echo "crash-smoke: resume did not report its resumed band" >&2
    exit 1
}
grep -q '4480 connected components' "$WORKDIR/resume.out" || {
    echo "crash-smoke: resumed run expected 4480 connected components" >&2
    exit 1
}

echo "crash-smoke: byte-comparing resumed artifacts against the reference"
cmp "$WORKDIR/ref.json" "$WORKDIR/resumed.json" || {
    echo "crash-smoke: resumed census JSON differs from the reference" >&2
    exit 1
}
cmp "$WORKDIR/ref.pgm" "$WORKDIR/resumed.pgm" || {
    echo "crash-smoke: resumed label PGM differs from the reference" >&2
    exit 1
}

echo "crash-smoke: PASS"
