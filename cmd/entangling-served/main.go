// Command entangling-served runs the simulation job server: a
// long-lived HTTP service that accepts {configurations x workloads x
// windows} sweep jobs, executes them through the evaluation harness
// with content-addressed result caching and singleflight
// deduplication, streams per-cell progress over SSE, and drains
// gracefully on SIGTERM/SIGINT (stop admitting, finish or checkpoint
// in-flight cells, exit 0). See README.md, "Serving mode".
//
// Three modes share the binary (-mode):
//
//	standalone   the single-node server (default) — cells simulate
//	             in-process.
//	coordinator  the same public job API, but cells are dispatched to
//	             a fleet of workers (-peers) with consistent-hash
//	             placement, work-stealing and checkpoint replication.
//	worker       a fleet worker: serves the fleet wire API and
//	             simulates the cells a coordinator assigns it.
//
// Examples:
//
//	entangling-served -addr :8080 -checkpoint-dir /var/lib/entangling
//	entangling-served -addr 127.0.0.1:0 -queue 4 -workers 1
//	entangling-served -mode worker -addr 127.0.0.1:9001 -worker-id w1
//	entangling-served -mode coordinator -addr :8080 \
//	    -peers http://127.0.0.1:9001,http://127.0.0.1:9002 \
//	    -checkpoint-dir /var/lib/entangling
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"entangling/internal/fleet"
	"entangling/internal/harness"
	"entangling/internal/server"
)

func main() {
	var cfg server.Config
	var (
		mode        = flag.String("mode", "standalone", "standalone, coordinator or worker")
		peers       = flag.String("peers", "", "comma-separated worker base URLs (coordinator mode)")
		workerID    = flag.String("worker-id", "", "this worker's name in results and health docs (worker mode)")
		stealAfter  = flag.Duration("steal-after", 15*time.Second, "how long the primary worker may hold a cell before it is raced to the next owner (coordinator mode)")
		tenantsFile = flag.String("tenants-file", "", "tenant config JSON; switches the server to authenticated multi-tenant mode with quotas and priority tiers")
		tierWeights = flag.String("tier-weights", "", "override tier weights, e.g. gold=100,silver=10,bronze=1")
		leakCheck   = flag.Bool("leak-check", false, "after a clean drain, fail (exit 1, stacks dumped) unless goroutines return to the startup baseline")
	)
	flag.StringVar(&cfg.Addr, "addr", ":8080", "listen address (use :0 for an ephemeral port)")
	flag.StringVar(&cfg.CheckpointDir, "checkpoint-dir", "", "persist completed cells here and serve warm restarts from it")
	flag.IntVar(&cfg.QueueCapacity, "queue", 16, "admitted-but-not-running job bound; beyond it submissions get 429")
	flag.IntVar(&cfg.Workers, "workers", 2, "concurrently running jobs")
	flag.IntVar(&cfg.CellParallelism, "cell-parallelism", 4, "concurrently resolving cells per job")
	flag.IntVar(&cfg.MaxCells, "max-cells", 512, "largest sweep one job may request")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", 1<<20, "largest accepted submission body in bytes")
	flag.IntVar(&cfg.PerCategory, "per-category", 6, "CVP workloads per category in the registry")
	flag.IntVar(&cfg.Retries, "retries", 2, "per-cell retry budget")
	flag.DurationVar(&cfg.RetryBaseDelay, "retry-base-delay", 100*time.Millisecond, "backoff before a cell's first retry")
	flag.DurationVar(&cfg.CellTimeout, "cell-timeout", 0, "per-cell attempt deadline (0 = none)")
	flag.BoolVar(&cfg.AllowFaults, "allow-faults", false, "accept fault_plan in submissions (testing)")
	flag.StringVar(&cfg.TraceDir, "trace-dir", "", "store uploaded traces here (default <checkpoint-dir>/traces when -checkpoint-dir is set)")
	flag.Int64Var(&cfg.MaxTraceBytes, "max-trace-bytes", 128<<20, "largest accepted trace upload body in bytes")
	flag.DurationVar(&cfg.DrainGrace, "drain-grace", 10*time.Second, "how long a drain waits for running jobs before canceling them")
	flag.Parse()

	if *tenantsFile != "" {
		tc, err := server.LoadTenantsFile(*tenantsFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.Tenants = &tc
	}
	if *tierWeights != "" {
		tw, err := parseTierWeights(*tierWeights)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cfg.TierWeights = tw
	}

	baseline := runtime.NumGoroutine()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var err error
	switch *mode {
	case "standalone":
		err = runServer(ctx, cfg)
	case "coordinator":
		err = runCoordinator(ctx, cfg, *peers, *stealAfter)
	case "worker":
		err = runWorker(ctx, cfg, *workerID)
	default:
		err = fmt.Errorf("unknown -mode %q (want standalone, coordinator or worker)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *leakCheck {
		if err := auditGoroutines(baseline); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		log.Printf("leak-check: clean (goroutines back at startup baseline)")
	}
}

// parseTierWeights parses "gold=100,silver=10" into a weight map.
func parseTierWeights(s string) (map[string]int, error) {
	tw := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("-tier-weights: %q is not name=weight", part)
		}
		w, err := strconv.Atoi(strings.TrimSpace(val))
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("-tier-weights: tier %q needs a positive integer weight", name)
		}
		tw[strings.TrimSpace(name)] = w
	}
	if len(tw) == 0 {
		return nil, fmt.Errorf("-tier-weights: no tiers parsed")
	}
	return tw, nil
}

// auditGoroutines waits for the process to settle back to its startup
// goroutine baseline after a drain; a stuck goroutine fails loudly
// with full stacks. The signal-notify goroutine from NotifyContext is
// the one expected straggler, hence baseline+1.
func auditGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline+1 {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("leak-check: %d goroutines alive after drain (baseline %d)\n%s",
				n, baseline, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func runServer(ctx context.Context, cfg server.Config) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	return srv.Run(ctx)
}

// runCoordinator serves the public job API with the fleet dispatcher
// plugged in: the coordinator owns the durable store (workers are
// disposable), places cells on -peers, and replicates every finished
// cell's checkpoint record before publishing it.
func runCoordinator(ctx context.Context, cfg server.Config, peers string, stealAfter time.Duration) error {
	var urls []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	var store *harness.CheckpointStore
	if cfg.CheckpointDir != "" {
		var err error
		if store, err = harness.OpenCheckpointStore(cfg.CheckpointDir); err != nil {
			return err
		}
		cfg.CheckpointDir = "" // the dispatcher owns the store now
	}
	coord, err := fleet.NewCoordinator(fleet.CoordinatorConfig{
		Peers:      urls,
		Store:      store,
		StealAfter: stealAfter,
		Logf:       log.Printf,
	})
	if err != nil {
		return err
	}
	defer coord.Close()

	readyCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err = coord.WaitReady(readyCtx)
	cancel()
	if err != nil {
		return err
	}
	log.Printf("coordinator: %d workers ready: %s", len(coord.Peers()), strings.Join(coord.Peers(), ", "))

	cfg.Dispatcher = coord
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	return srv.Run(ctx)
}

// runWorker serves the fleet wire API until the context cancels, then
// shuts down gracefully: in-flight assignments get DrainGrace to
// finish (their results are what the coordinator is waiting on).
func runWorker(ctx context.Context, cfg server.Config, id string) error {
	if id == "" {
		id = "worker"
	}
	var store *harness.CheckpointStore
	if cfg.CheckpointDir != "" {
		var err error
		if store, err = harness.OpenCheckpointStore(cfg.CheckpointDir); err != nil {
			return err
		}
	}
	w := fleet.NewWorker(fleet.WorkerConfig{
		ID:             id,
		Store:          store,
		Retries:        cfg.Retries,
		RetryBaseDelay: cfg.RetryBaseDelay,
		CellTimeout:    cfg.CellTimeout,
		AllowFaults:    cfg.AllowFaults,
		Logf:           log.Printf,
	})

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return fmt.Errorf("worker: %w", err)
	}
	log.Printf("fleet worker %s: listening on %s", id, ln.Addr())

	hs := &http.Server{Handler: w.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("worker: %w", err)
	case <-ctx.Done():
	}

	grace := cfg.DrainGrace
	if grace <= 0 {
		grace = 10 * time.Second
	}
	log.Printf("fleet worker %s: draining (grace %v)", id, grace)
	shutCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		hs.Close()
	}
	<-serveErr // Serve has returned http.ErrServerClosed
	log.Printf("fleet worker %s: drained", id)
	return nil
}
