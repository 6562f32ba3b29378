// Command imgccd is the labeling-as-a-service daemon: a long-lived HTTP
// server that accepts PGM images and returns their connected-component
// labelings (as JSON label arrays, per-component census statistics, or a
// densely renumbered PGM), built on the pooled-engine runtime of
// internal/serve, whose runners share one bounded FIFO queue.
//
// Endpoints:
//
//	POST /label    label the posted PGM (query: mode, conn, census=1,
//	               labels=1, out=json|pgm, deadline_ms); census=1 and
//	               labels=1 apply only with out=json
//	GET  /metrics  parimg-metrics/v1 documents: aggregate + recent requests
//	GET  /healthz  16x16 label round-trip through the full scheduler path
//
// Sizing: -engines runner goroutines each drive an -engine-workers-wide
// engine rented from a pool; engines x engine-workers must fit within
// ceil(GOMAXPROCS x -oversub). The -queue flag bounds admitted-but-waiting
// requests — beyond it the server answers 429 + Retry-After instead of
// queueing unbounded latency.
//
// Examples:
//
//	imgccd -addr :8080
//	imgccd -addr :8080 -engines 4 -engine-workers 2 -oversub 2 -queue 64
//	curl -s --data-binary @darpa_before.pgm 'localhost:8080/label?mode=grey&census=1'
//
// The server shuts down cleanly on SIGINT/SIGTERM: the listener stops, and
// in-flight requests finish (bounded by their own deadlines).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"parimg/internal/cli"
	"parimg/internal/serve"
)

func main() { os.Exit(cli.Run("imgccd", run)) }

func run() error {
	var (
		addr     = cli.AddrFlag(flag.CommandLine)
		engines  = cli.EnginesFlag(flag.CommandLine)
		workers  = cli.EngineWorkersFlag(flag.CommandLine)
		oversub  = cli.OversubFlag(flag.CommandLine)
		queue    = cli.QueueFlag(flag.CommandLine)
		deadline = cli.RequestDeadlineFlag(flag.CommandLine)
	)
	flag.Parse()

	s, err := serve.New(serve.Config{
		Engines:         *engines,
		EngineWorkers:   *workers,
		Oversubscribe:   *oversub,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	cfg := s.Config()
	fmt.Printf("imgccd: listening on %s (engines=%d workers/engine=%d queue=%d)\n",
		*addr, cfg.Engines, cfg.EngineWorkers, cfg.QueueDepth)

	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()

	select {
	case err := <-serveErr:
		// The listener died on its own (bad address, port in use).
		return err
	case <-ctx.Done():
	}
	fmt.Println("imgccd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
