// Command entangling-served runs the simulation job server: a
// long-lived HTTP service that accepts {configurations x workloads x
// windows} sweep jobs, executes them through the evaluation harness
// with content-addressed result caching and singleflight
// deduplication, streams per-cell progress over SSE, and drains
// gracefully on SIGTERM/SIGINT (stop admitting, finish or checkpoint
// in-flight cells, exit 0). See README.md, "Serving mode".
//
// Examples:
//
//	entangling-served -addr :8080 -checkpoint-dir /var/lib/entangling
//	entangling-served -addr 127.0.0.1:0 -queue 4 -workers 1
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"entangling/internal/server"
)

func main() {
	var cfg server.Config
	var (
		tenantsFile = flag.String("tenants-file", "", "tenant config JSON; switches the server to authenticated multi-tenant mode with quotas and priority tiers")
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

	baseline := runtime.NumGoroutine()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := runServer(ctx, cfg); err != nil {
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
