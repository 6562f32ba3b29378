#!/usr/bin/env bash
# End-to-end smoke test of the out-of-core streaming pipeline, used by
# `make stream-smoke` and the CI stream-smoke job:
#
#   1. generate a 64x70000 striped PGM bandwise (genimages -stream) — an
#      image taller than the resident engines' 65535-side ceiling, with a
#      known component count (32 stripes x 140 segments = 4480),
#   2. label it out of core (imgcc -stream) and check the component
#      count, writing the dense-renumbered label PGM and a metrics doc,
#   3. validate the metrics document through the schema checker
#      (cmd/metricscheck) and check the streaming band phases are there,
#   4. re-stream the 16-bit label PGM in grey mode — every dense label is
#      one flat component, so the count must come back unchanged — which
#      exercises the 2-byte big-endian streaming decode path end to end.
#
# Needs: go. Exits non-zero on the first failure.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKDIR="$(mktemp -d)"
cleanup() { rm -rf "$WORKDIR"; }
trap cleanup EXIT

echo "stream-smoke: building imgcc, genimages, metricscheck"
go build -o "$WORKDIR/imgcc" ./cmd/imgcc
go build -o "$WORKDIR/genimages" ./cmd/genimages
go build -o "$WORKDIR/metricscheck" ./cmd/metricscheck

echo "stream-smoke: generating a 64x70000 striped PGM"
"$WORKDIR/genimages" -stream -rows 70000 -cols 64 -period 500 \
    -out "$WORKDIR/tall.pgm" | tee "$WORKDIR/gen.out"
grep -q '4480 components' "$WORKDIR/gen.out" || {
    echo "stream-smoke: generator expected 4480 components" >&2
    exit 1
}

echo "stream-smoke: labeling it out of core"
"$WORKDIR/imgcc" -stream -in "$WORKDIR/tall.pgm" -band-rows 4096 -top 3 \
    -metrics "$WORKDIR/metrics.json" -out "$WORKDIR/labels.pgm" \
    | tee "$WORKDIR/label.out"
grep -q '4480 connected components' "$WORKDIR/label.out" || {
    echo "stream-smoke: expected 4480 connected components" >&2
    exit 1
}

echo "stream-smoke: validating the metrics document"
"$WORKDIR/metricscheck" "$WORKDIR/metrics.json"
for phase in band_decode strip_label band_merge band_write; do
    grep -q "\"$phase\"" "$WORKDIR/metrics.json" || {
        echo "stream-smoke: metrics document is missing phase $phase" >&2
        exit 1
    }
done

echo "stream-smoke: re-streaming the 16-bit label PGM in grey mode"
head -c 16 "$WORKDIR/labels.pgm" | grep -q '4480' || {
    echo "stream-smoke: label PGM header should carry maxval 4480 (16-bit samples)" >&2
    exit 1
}
"$WORKDIR/imgcc" -stream -in "$WORKDIR/labels.pgm" -grey -conn 4 -top 0 \
    -band-rows 3000 | tee "$WORKDIR/relabel.out"
grep -q '4480 connected components' "$WORKDIR/relabel.out" || {
    echo "stream-smoke: re-streamed label PGM should have 4480 components" >&2
    exit 1
}

echo "stream-smoke: PASS"
