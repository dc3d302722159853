// Command hspd is the scheduler-as-a-service daemon: it serves the
// paper's schedulability and assignment solvers over HTTP, backed by
// internal/serve's bounded worker pool (reusable per-worker solver
// workspaces, per-request cooperative cancellation, batching, and
// deterministic load shedding under overload).
//
// Usage:
//
//	hspd -addr :8080                      # serve until SIGINT/SIGTERM
//	hspd -workers 8 -queue 64             # pool and admission-queue sizing
//
// Endpoints: POST /v1/solve, POST /v1/batch, GET /healthz, GET /statsz.
// See README.md for the request schema and the serving playbook entry in
// PERFORMANCE.md for tuning.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hsp/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "hspd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("hspd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		workers  = fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		queue    = fs.Int("queue", 0, "admission queue depth in tasks (0 = 4×workers)")
		timeout  = fs.Duration("timeout", 30*time.Second, "default per-request solve deadline")
		maxTO    = fs.Duration("max-timeout", 0, "cap on every per-request deadline, default or client-supplied (0 = -timeout)")
		retry    = fs.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
		maxBatch = fs.Int("max-batch", 64, "max requests per /v1/batch task")
		cacheEnt = fs.Int("cache-entries", 0, "content-addressed response cache capacity in entries (0 = caching disabled)")
		cacheB   = fs.Int64("cache-bytes", 0, "cache total-bytes bound, keys+responses (0 = 64 MiB when -cache-entries > 0)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := serve.New(serve.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTO,
		RetryAfter:     *retry,
		MaxBatch:       *maxBatch,
		CacheEntries:   *cacheEnt,
		CacheBytes:     *cacheB,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stderr, "hspd: listening on %s (workers=%d queue=%d timeout=%s)\n",
		ln.Addr(), srv.Config().Workers, srv.Config().QueueDepth, srv.Config().DefaultTimeout)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting connections, let in-flight requests
	// finish under their own deadlines, then stop the worker pool.
	fmt.Fprintln(stderr, "hspd: shutting down")
	sctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	return nil
}
