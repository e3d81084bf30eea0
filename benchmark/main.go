// Command benchmark measures the host cost of this reproduction on four
// workloads: a cold paper sweep, a prefetch-free sweep, and cold and hot
// serving through the job server. It drives the simulator and the
// server only through their public entry points, checks that every
// answer is correct, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics listed in
// BENCHMARK.json; with -trace 1 they are the per-layer metrics, and the
// run also reports how much the tracing itself cost. See
// benchmark/README.md for why each workload exists and how to compare
// two commits.
//
// From the repository root, run.sh builds it and runs one workload:
//
//	bash benchmark/run.sh --workload sweep-paper --seed 1 --seconds 20 --trace 0
//
// From this directory, go run . -workload all runs every workload, each
// in its own process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"syscall"
)

// procs is the CPU count the benchmark is sized for: two sweep workers,
// two server workers, two closed-loop clients.
const procs = 2

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: "+workloadNames()+", or all")
		seed    = flag.Uint64("seed", 0, "input seed; 0 submits sweep cells in the paper's order")
		seconds = flag.Float64("seconds", 20, "how long to measure; at least two repetitions always run")
		traced  = flag.Int("trace", 0, "1 reports per-layer metrics instead of end-to-end metrics")
		scale   = flag.String("scale", "full", "input size: full, or smoke for a seconds-long check")
	)
	flag.Parse()
	runtime.GOMAXPROCS(procs)

	sc, ok := scales[*scale]
	if !ok || (*traced != 0 && *traced != 1) || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -scale must be full or smoke, -trace 0 or 1, -seconds >= 0")
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *name == "all" {
		os.Exit(runAll(ctx, os.Args[1:]))
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (want %s or all)\n", *name, workloadNames())
		os.Exit(2)
	}
	p := params{seed: *seed, seconds: *seconds, trace: *traced == 1, scale: sc}
	res, err := w.run(ctx, p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if err := res.print(os.Stdout, w.name, p); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
}

// runAll re-executes this binary once per workload, so each workload's
// peak RSS is its own, and streams every child's output. Canceling ctx
// stops the running child and waits for it.
func runAll(ctx context.Context, args []string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		if ctx.Err() != nil {
			return 1
		}
		// The last -workload on a command line wins.
		cmd := exec.CommandContext(ctx, self, append(args[:len(args):len(args)], "-workload", w.name)...)
		cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// params are the inputs every workload runs under.
type params struct {
	seed    uint64
	seconds float64
	trace   bool
	scale   scale
}

// metric is one printed measurement; n is its sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// result is one workload run: correctness, op counts, the end-to-end
// metrics, the per-layer metrics (traced runs only), and context lines
// printed above them. model holds the simulated results of a sweep:
// context for the host-time metrics, locked by the fingerprint rather
// than measured for regressions.
type result struct {
	correct   bool
	attempted int
	failed    int
	e2e       []metric
	layers    []metric
	notes     []string
	model     []string
}

// print writes the human-readable report and, last, the JSON line with
// the metrics of the requested kind.
func (r *result) print(w io.Writer, workload string, p params) error {
	kind, metrics := "end_to_end", r.e2e
	if p.trace {
		kind, metrics = "layers", r.layers
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g scale %s\n", workload, p.seed, p.seconds, p.scale.name)
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	if len(r.model) > 0 {
		fmt.Fprintln(w, "model:")
		for _, m := range r.model {
			fmt.Fprintln(w, "  "+m)
		}
	}
	fmt.Fprintf(w, "ops attempted %d failed %d correct %t\n", r.attempted, r.failed, r.correct)
	fmt.Fprintf(w, "%s:\n", kind)
	sorted := append([]metric(nil), metrics...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range sorted {
		fmt.Fprintf(w, "  %-40s %14s %-9s n=%d\n", m.name, strconv.FormatFloat(m.value, 'g', 6, 64), m.unit, m.n)
		out[m.name] = value{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, out})
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
