// Command hetsynthd is the synthesis daemon: an HTTP service exposing the
// repository's assignment and scheduling solvers behind a bounded worker
// pool, a canonical-hash result cache, and single-flight deduplication (see
// internal/server).
//
// The solve endpoints speak JSON by default and a length-prefixed binary
// wire format negotiated by content type: a request with Content-Type
// application/x-hetsynth-bin is decoded as a binary frame, and that content
// type in either Content-Type or Accept selects a binary response. Both
// codecs resolve to the same canonical digests and share all caches; error
// responses are always JSON. See DESIGN.md §11 for the frame layout.
//
// Endpoints:
//
//	POST   /v1/solve       synchronous solve (blocks until done or timeout)
//	POST   /v1/solve-batch answer many solve requests in one round trip
//	POST   /v1/admit       schedulability admission: verdict or cheapest FU config
//	POST   /v1/admit/jobs  asynchronous admission, returns a job id
//	POST   /v1/jobs        asynchronous solve, returns a job id
//	GET    /v1/jobs        list tracked jobs
//	GET    /v1/jobs/{id}   poll a job
//	DELETE /v1/jobs/{id}   cancel a job
//	PUT    /v1/instances/{id}        create/replace a stateful session
//	PATCH  /v1/instances/{id}        apply typed deltas, re-solve dirty paths
//	GET    /v1/instances/{id}        read the session's settled view
//	DELETE /v1/instances/{id}        evict the session
//	GET    /v1/instances/{id}/events SSE stream (state/incumbent/settled/evicted)
//	GET    /v1/benchmarks  bundled benchmarks and FU catalogs
//	GET    /healthz        liveness (503 while draining)
//	GET    /v1/peerz       load summary polled by cluster routers (hetsynthrouter)
//	GET    /metrics        queue depth, cache hit rate, latency histogram
//
// On SIGINT/SIGTERM the daemon stops admission and drains: in-flight and
// queued jobs run to completion before the process exits.
//
// Usage:
//
//	hetsynthd -addr :8080 -workers 8 -queue 128
//	hetsynthd -addr 127.0.0.1:0   # picks a free port, prints it on stdout
//	hetsynthd -pprof 127.0.0.1:6060  # net/http/pprof on a second listener
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"hetsynth/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "solver pool size")
		queue    = flag.Int("queue", 64, "job queue depth (admission bound)")
		cache    = flag.Int("cache", 256, "result/frontier LRU capacity")
		shards   = flag.Int("cache-shards", 16, "cache shard count (rounded up to a power of two)")
		retain   = flag.Int("retain", 256, "finished async jobs kept for polling")
		timeout  = flag.Duration("timeout", 30*time.Second, "default per-solve time budget")
		maxTO    = flag.Duration("max-timeout", 120*time.Second, "upper clamp on requested budgets")
		logLevel = flag.String("log", "info", "log level (debug|info|warn|error)")
		pprofOn  = flag.String("pprof", "", "serve net/http/pprof on this address (empty: disabled)")
		sessTTL  = flag.Duration("session-ttl", 10*time.Minute, "idle lifetime of stateful sessions")
		sessMax  = flag.Int("session-max", 64, "live session cap (LRU eviction past it)")
	)
	flag.Parse()
	cfg := daemonConfig{
		addr: *addr, workers: *workers, queue: *queue, cache: *cache,
		shards: *shards, retain: *retain, timeout: *timeout, maxTO: *maxTO,
		logLevel: *logLevel, pprofAddr: *pprofOn,
		sessTTL: *sessTTL, sessMax: *sessMax,
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hetsynthd:", err)
		os.Exit(1)
	}
}

type daemonConfig struct {
	addr      string
	workers   int
	queue     int
	cache     int
	shards    int
	retain    int
	timeout   time.Duration
	maxTO     time.Duration
	logLevel  string
	pprofAddr string
	sessTTL   time.Duration
	sessMax   int
}

func run(cfg daemonConfig) error {
	var level slog.Level
	if err := level.UnmarshalText([]byte(cfg.logLevel)); err != nil {
		return fmt.Errorf("bad -log level %q: %w", cfg.logLevel, err)
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	// The resolved address goes to stdout as the first line, so wrappers
	// (e.g. the serve-smoke driver) can use "-addr 127.0.0.1:0" and parse
	// the port the kernel handed out.
	fmt.Printf("listening on %s\n", ln.Addr())
	logger.Info("hetsynthd starting", "addr", ln.Addr().String(), "workers", cfg.workers, "queue", cfg.queue)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if cfg.pprofAddr != "" {
		if err := servePprof(ctx, cfg.pprofAddr, logger); err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
	}

	s := server.New(server.Config{
		Workers:        cfg.workers,
		QueueDepth:     cfg.queue,
		CacheSize:      cfg.cache,
		CacheShards:    cfg.shards,
		JobRetention:   cfg.retain,
		DefaultTimeout: cfg.timeout,
		MaxTimeout:     cfg.maxTO,
		SessionTTL:     cfg.sessTTL,
		SessionMax:     cfg.sessMax,
		Logger:         logger,
	})
	return s.Run(ctx, ln)
}

// servePprof exposes net/http/pprof on its own listener, kept off the main
// mux so profiling is never reachable through the public service address.
// The listener dies with ctx; profile requests in flight at shutdown are cut.
func servePprof(ctx context.Context, addr string, logger *slog.Logger) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	logger.InfoContext(ctx, "pprof listening", "addr", ln.Addr().String())
	go func() { // detached: lives until process shutdown, joined via Shutdown below
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			logger.WarnContext(ctx, "pprof server exited", "err", err)
		}
	}()
	go func() { // detached: shutdown watcher for the pprof listener
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		//hetsynth:ignore retval best-effort shutdown of the profiling
		// listener; the process is exiting either way.
		_ = srv.Shutdown(sctx)
	}()
	return nil
}
