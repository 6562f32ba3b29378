# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover bench bench-short bench-json bench-diff fuzz-short chaos-short serve-smoke stream-smoke crash-smoke experiments examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: a fast smoke test that the benchmark
# code itself still runs (used by CI).
bench-short:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Regenerate BENCH_runs.json (backend x workers x mode wall-clock matrix over
# the full pattern catalog plus DARPA, binary and grey).
bench-json:
	$(GO) run ./cmd/benchjson

# Measure a fresh (fast) matrix and diff it cell-by-cell against the
# committed BENCH_runs.json; fails on per-cell slowdowns beyond the
# tolerance, lost cells, or labelings that disagree with the sequential
# reference. The committed baseline was measured on different hardware, so
# the default tolerance is generous — see cmd/benchdiff.
bench-diff:
	$(GO) run ./cmd/benchjson -mintime 50ms -o /tmp/parimg_bench_new.json
	$(GO) run ./cmd/benchdiff -new /tmp/parimg_bench_new.json -tolerance 2

# Quick fuzz pass: the run engine against the sequential BFS reference
# (mixed binary/grey, then a grey-only leg so grey-level boundary cases get
# undiluted fuzz time), the PGM parser on arbitrary bytes, and the whole
# public API on arbitrary parameters (error-or-correct-result, never a
# panic).
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzRunLabelMatchesBFS -fuzztime 30s ./internal/par/
	$(GO) test -run '^$$' -fuzz FuzzGreyRunLabelMatchesBFS -fuzztime 30s ./internal/par/
	$(GO) test -run '^$$' -fuzz FuzzReadPGM -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzPublicAPI -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz FuzzStreamPGM -fuzztime 30s ./internal/stream/

# Chaos suite under the race detector: injected panics, delays and
# barrier no-shows, cooperative cancellation, the barrier watchdog, and
# the goroutine leak checks — across the simulator and host-parallel
# backends (used by the CI chaos job).
chaos-short:
	$(GO) test -race -timeout 5m -run 'Chaos|Injected|Watchdog|RunContext|LabelContext|HistogramContext|Abort|Timeout|Checkpoint|Resume|Corrupt|Mismatch|Deadline|Saturation|Shutdown' . ./internal/bdm/ ./internal/par/ ./internal/hist/ ./internal/cc/ ./internal/cli/ ./internal/fault/... ./internal/serve/ ./internal/stream/

# End-to-end smoke test of the labeling service: build and start imgccd,
# wait for /healthz, POST the DARPA benchmark scene, diff the census
# response against the committed golden, and validate the scraped /metrics
# through the schema checker (used by the CI serve-smoke job).
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke test of the out-of-core streaming pipeline: generate a
# 64x70000 striped PGM bandwise, label it with imgcc -stream, check the
# known component count, validate the metrics document, and re-stream the
# 16-bit label PGM in grey mode (used by the CI stream-smoke job).
stream-smoke:
	./scripts/stream_smoke.sh

# End-to-end crash/resume smoke test of streaming checkpointing: start a
# checkpointed run paced to stall mid-image, kill -9 it, resume from the
# surviving record, and byte-compare the census JSON and label PGM against
# an uninterrupted reference run (used by the CI crash-smoke job).
crash-smoke:
	./scripts/stream_crash_smoke.sh

# Regenerate the committed experiment artifacts: the captured
# cmd/experiments output and the phasereport tables in EXPERIMENTS.md
# (the section between the phasereport:begin/end markers).
experiments:
	$(GO) run ./cmd/experiments all | tee experiments_output.txt
	$(GO) run ./cmd/phasereport -update EXPERIMENTS.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/percolation
	$(GO) run ./examples/isingclusters
	$(GO) run ./examples/objects
	$(GO) run ./examples/segmentation

clean:
	$(GO) clean ./...
