# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test race cover bench bench-short bench-ab fuzz-short chaos-short serve-smoke stream-smoke crash-smoke experiments examples clean

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

# Same-runner perf gate: the benchmark's four workloads (benchmark/) on the
# last commit and on the working tree, three alternating pairs of short
# passes, judged by the benchmark's -compare. Fails when an output misses
# its oracle, a workload fails, or a metric REGRESSED past its bound (used
# by the CI bench-ab job, against the pull request's base commit).
bench-ab:
	./scripts/bench_ab.sh HEAD

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
# backends (used by the CI chaos job). The engine's cancellation, close
# and injected-fault tests run again at one and at four procs: where a
# stop lands inside a strip's row loop depends on the schedule.
chaos-short:
	$(GO) test -race -timeout 5m -run 'Chaos|Injected|Watchdog|RunContext|LabelContext|HistogramContext|Abort|Timeout|Checkpoint|Resume|Corrupt|Mismatch|Deadline|Saturation|Shutdown' . ./internal/bdm/ ./internal/par/ ./internal/hist/ ./internal/cc/ ./internal/cli/ ./internal/fault/... ./internal/serve/ ./internal/stream/
	$(GO) test -race -cpu 1,4 -timeout 5m -run 'Injected|Context|Chaos|Close' ./internal/par/

# End-to-end smoke test of the labeling service: build and start imgccd,
# wait for /healthz, POST the DARPA benchmark scene, diff the census
# response against the committed golden, cmp the served label PGM against
# imgcc -stream -out, and validate the scraped /metrics through the schema
# checker (used by the CI serve-smoke job).
serve-smoke:
	./scripts/serve_smoke.sh

# End-to-end smoke test of the out-of-core streaming pipeline: generate a
# 64x70000 striped PGM bandwise, label it with imgcc -stream, check the
# known component count, validate the metrics document, re-stream the
# 16-bit label PGM in grey mode, and byte-compare the label PGMs and the
# census-only JSONs of it and the DARPA scene at GOMAXPROCS 1 and 4 (used
# by the CI stream-smoke job).
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
