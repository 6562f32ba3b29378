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
#      band_wait (the ordered commit's wait for the next labeled band)
#      among them,
#   4. re-stream the 16-bit label PGM in grey mode — every dense label is
#      one flat component, so the count must come back unchanged — which
#      exercises the 2-byte big-endian streaming decode path end to end,
#   5. label the DARPA scene (grey) and the striped image under three
#      schedules and byte-compare their label PGMs: GOMAXPROCS=1, where
#      one band is in flight and it is one strip; GOMAXPROCS=4, where
#      the thin bands (64 rows of DARPA, 4096 of the stripes) label four
#      at a time, one strip each; and, for DARPA, GOMAXPROCS=4 with one
#      512-row band covering the image, which the band engine splits
#      into four strips (its metrics must show border_merge). The label
#      PGM does not depend on the band height, so all three must match,
#   6. run the census-only pass (no -out: the pass that folds each band's
#      runs into the frontier) of both images at GOMAXPROCS=1 and 4 with
#      -top 16 -census-json, and byte-compare each pair of census JSONs:
#      the component sizes must not depend on the schedule either. The
#      census JSON carries the band count and height, so both runs of a
#      pair use the same band height.
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
for phase in band_decode strip_label band_merge band_wait census_fold band_write; do
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

echo "stream-smoke: labels must not depend on the schedule (one band, bands in flight, strips)"
for procs in 1 4; do
    GOMAXPROCS=$procs "$WORKDIR/imgcc" -stream -in darpa_before.pgm -grey -band-rows 64 \
        -top 0 -out "$WORKDIR/darpa.$procs.pgm" > /dev/null
    GOMAXPROCS=$procs "$WORKDIR/imgcc" -stream -in "$WORKDIR/tall.pgm" -band-rows 4096 \
        -top 0 -out "$WORKDIR/tall.$procs.pgm" > /dev/null
done
GOMAXPROCS=4 "$WORKDIR/imgcc" -stream -in darpa_before.pgm -grey -band-rows 512 \
    -top 0 -metrics "$WORKDIR/strips.json" -out "$WORKDIR/darpa.strips.pgm" > /dev/null
grep -q '"border_merge"' "$WORKDIR/strips.json" || {
    echo "stream-smoke: the one-band DARPA run did not split into strips" >&2
    exit 1
}
for pair in darpa.1:darpa.4 darpa.1:darpa.strips tall.1:tall.4; do
    a=${pair%%:*} b=${pair##*:}
    cmp "$WORKDIR/$a.pgm" "$WORKDIR/$b.pgm" || {
        echo "stream-smoke: label PGM $b differs from $a" >&2
        exit 1
    }
done

echo "stream-smoke: the census must not depend on the schedule (GOMAXPROCS 1 against 4)"
for procs in 1 4; do
    GOMAXPROCS=$procs "$WORKDIR/imgcc" -stream -in darpa_before.pgm -grey -band-rows 64 \
        -top 16 -census-json "$WORKDIR/darpa.$procs.json" > /dev/null
    GOMAXPROCS=$procs "$WORKDIR/imgcc" -stream -in "$WORKDIR/tall.pgm" -band-rows 4096 \
        -top 16 -census-json "$WORKDIR/tall.$procs.json" > /dev/null
done
for img in darpa tall; do
    cmp "$WORKDIR/$img.1.json" "$WORKDIR/$img.4.json" || {
        echo "stream-smoke: $img census differs between GOMAXPROCS 1 and 4" >&2
        exit 1
    }
done

echo "stream-smoke: PASS"
