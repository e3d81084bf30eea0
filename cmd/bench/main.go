// Command bench runs the repository's pinned benchmark mini-sweep and
// writes a versioned BENCH_*.json point, the durable record of the
// simulator's performance trajectory across PRs (see EXPERIMENTS.md,
// "Benchmark methodology").
//
// Examples:
//
//	bench -label PR2 -out BENCH_PR2.json
//	bench -label PR2 -iterations 5 -before BENCH_PR2.before.json -out BENCH_PR2.json
//	bench -check BENCH_PR2.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"entangling/internal/harness"
)

func main() {
	var (
		label      = flag.String("label", "dev", "benchmark point label (e.g. PR2)")
		iterations = flag.Int("iterations", 3, "sweep repetitions; the fastest provides the timings")
		out        = flag.String("out", "", "write the BENCH JSON document to this file (default stdout)")
		beforePath = flag.String("before", "", "embed this previously measured point as the 'before' side")
		check      = flag.String("check", "", "validate an existing BENCH JSON file against the schema and exit")
	)
	flag.Parse()

	if *check != "" {
		f, err := os.Open(*check)
		if err != nil {
			fatal(err)
		}
		doc, err := harness.ReadBenchFile(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", *check, err))
		}
		fmt.Printf("%s: valid (label %s, %.2fs wall, %.0f runs/s, %.1f allocs/run)\n",
			*check, doc.Label, doc.After.WallSeconds, doc.After.RunsPerSec, doc.After.AllocsPerRun)
		if doc.Before != nil {
			fmt.Printf("before: %.2fs wall -> speedup %.2fx\n", doc.Before.WallSeconds, doc.SpeedupVsBefore)
		}
		return
	}

	doc := harness.BenchFile{SchemaVersion: harness.BenchSchemaVersion, Label: *label}
	if *beforePath != "" {
		b, err := readPoint(*beforePath)
		if err != nil {
			fatal(err)
		}
		doc.Before = &b
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	p, err := harness.RunBenchCtx(ctx, *label, *iterations)
	if err != nil {
		fatal(err)
	}
	doc.After = p
	if doc.Before != nil && p.WallSeconds > 0 {
		doc.SpeedupVsBefore = doc.Before.WallSeconds / p.WallSeconds
		if doc.Before.MetricsSHA256 != p.MetricsSHA256 {
			fmt.Fprintf(os.Stderr,
				"warning: metrics fingerprint changed vs before (%s -> %s); wall-clock comparison covers different simulated behaviour\n",
				doc.Before.MetricsSHA256[:12], p.MetricsSHA256[:12])
		}
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := harness.WriteBenchFile(w, doc); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %.2fs wall, %.0f runs/s, %.2fM instrs/s, %.1f allocs/run, peak RSS %.1f MB\n",
		*label, p.WallSeconds, p.RunsPerSec, p.InstrsPerSec/1e6, p.AllocsPerRun,
		float64(p.PeakRSSBytes)/1e6)
	if doc.SpeedupVsBefore > 0 {
		fmt.Fprintf(os.Stderr, "speedup vs before: %.2fx\n", doc.SpeedupVsBefore)
	}
}

// readPoint loads a bare point or the 'after' side of a full document.
func readPoint(path string) (harness.BenchPoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return harness.BenchPoint{}, err
	}
	defer f.Close()
	if doc, err := harness.ReadBenchFile(f); err == nil {
		return doc.After, nil
	}
	if _, err := f.Seek(0, 0); err != nil {
		return harness.BenchPoint{}, err
	}
	var p harness.BenchPoint
	dec := json.NewDecoder(f)
	if err := dec.Decode(&p); err != nil {
		return harness.BenchPoint{}, fmt.Errorf("%s: neither a BENCH document nor a bare point: %w", path, err)
	}
	if err := harness.ValidateBenchPoint(&p); err != nil {
		return harness.BenchPoint{}, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
