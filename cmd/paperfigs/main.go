// Command paperfigs regenerates the tables and figures of the paper's
// evaluation section (§IV) on the synthetic workload suites.
//
// Examples:
//
//	paperfigs -fig 6                 # IPC vs storage (Figure 6)
//	paperfigs -fig all               # everything
//	paperfigs -fig 16 -csv out/      # CloudSuite figure + CSV dump
//	paperfigs -fig 6 -per-category 2 -warmup 500000 -measure 400000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"

	"entangling"
	"entangling/internal/harness"
	"entangling/internal/workload"
)

func main() {
	var (
		fig        = flag.String("fig", "6", "which figures/tables, comma-separated: "+strings.Join(figNames, ","))
		perCat     = flag.Int("per-category", 6, "workloads per category in the CVP-like suite")
		warmup     = flag.Uint64("warmup", 2_000_000, "warm-up instructions per run")
		measure    = flag.Uint64("measure", 1_000_000, "measured instructions per run")
		points     = flag.Int("points", 11, "resampled points for the sorted-curve figures")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		jsonDir    = flag.String("json", "", "also write each table as JSON into this directory")
		metricsOut = flag.String("metrics-out", "", "write the main sweep's per-run metrics to this file (.csv for CSV, JSON otherwise)")

		checkpoint = flag.String("checkpoint", "", "persist every completed sweep cell into this directory (crash-safe)")
		resume     = flag.Bool("resume", false, "read valid records from -checkpoint instead of re-running their cells")
		progress   = flag.Bool("progress", false, "log each sweep cell's lifecycle (restore/start/finish/fail) to stderr")
	)
	flag.Parse()
	if *resume && *checkpoint == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}
	want, err := parseFigs(*fig)
	if err != nil {
		fatal(err)
	}
	all := want["all"]

	// An interrupt cancels the sweep cooperatively: in-flight cells
	// stop at the next poll, completed cells stay checkpointed, and a
	// later -resume run picks up from there. Figures 1 and 2 are sweeps
	// like the rest; ext-pq stops mid-run too but checkpoints nothing.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := harness.Options{Warmup: *warmup, Measure: *measure, Resume: *resume}
	if *progress {
		opt.Progress = logProgress
	}
	if *checkpoint != "" {
		store, err := harness.OpenCheckpointStore(*checkpoint)
		if err != nil {
			fatal(err)
		}
		opt.Checkpoint = store
	}
	specs := workload.CVPSuite(*perCat)
	// One resolver, and so one trace cache, for every sweep: a cell an
	// earlier sweep already resolved is served from memory, not rerun.
	res := harness.NewResolver(opt)
	sweep := func(specs []workload.Spec, cfgs []harness.Configuration) *harness.SuiteResults {
		s, err := res.RunSuite(ctx, specs, cfgs, opt)
		if err != nil {
			fatal(err)
		}
		return s
	}

	emit := func(t *harness.Table, key string) {
		fmt.Println(t.String())
		if *csvDir != "" {
			if err := os.MkdirAll(*csvDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*csvDir, "fig"+key+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("(csv written to %s)\n\n", path)
		}
		if *jsonDir != "" {
			if err := os.MkdirAll(*jsonDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*jsonDir, "fig"+key+".json")
			if err := os.WriteFile(path, []byte(t.JSON()), 0o644); err != nil {
				fatal(err)
			}
			fmt.Printf("(json written to %s)\n\n", path)
		}
	}

	// Figures 1-2: the motivation study.
	if all || want["1"] {
		t, err := harness.Fig01(ctx, res, specs, opt)
		if err != nil {
			fatal(err)
		}
		emit(t, "01")
	}
	if all || want["2"] {
		t, err := harness.Fig02(ctx, res, specs, opt)
		if err != nil {
			fatal(err)
		}
		emit(t, "02")
	}

	// The main sweep feeds Figures 6-10, Table IV, the quality table
	// and the metrics export.
	needMain := all || want["6"] || want["7"] || want["8"] || want["9"] || want["10"] ||
		want["table4"] || want["headline"] || want["quality"] || *metricsOut != ""
	if needMain {
		fmt.Fprintf(os.Stderr, "running main sweep: %d workloads x %d configurations...\n",
			len(specs), len(harness.StandardConfigurations()))
		suite := sweep(specs, harness.StandardConfigurations())
		if all || want["6"] {
			emit(harness.Fig06(suite), "06")
		}
		if all || want["7"] {
			emit(harness.Fig07(suite, *points), "07")
		}
		if all || want["8"] {
			emit(harness.Fig08(suite, *points), "08")
		}
		if all || want["9"] {
			emit(harness.Fig09(suite, *points), "09")
		}
		if all || want["10"] {
			emit(harness.Fig10(suite, *points), "10")
		}
		if all || want["table4"] {
			emit(harness.Table04(suite, entangling.DefaultEnergyModel()), "table4")
		}
		if all || want["headline"] {
			emit(harness.Headline(suite), "headline")
		}
		if all || want["quality"] {
			emit(harness.QualityTable(suite), "quality")
		}
		if *metricsOut != "" {
			if err := harness.WriteMetricsFile(*metricsOut, suite.Metrics()); err != nil {
				fatal(err)
			}
			fmt.Printf("(metrics written to %s)\n\n", *metricsOut)
		}
	}

	// Figure 11: ablation sweep.
	if all || want["11"] {
		fmt.Fprintln(os.Stderr, "running ablation sweep (Figure 11)...")
		emit(harness.Fig11(sweep(specs, harness.AblationConfigurations())), "11")
	}

	// Figures 12-15: Entangling-internal statistics.
	if all || want["12"] || want["13"] || want["14"] || want["15"] {
		fmt.Fprintln(os.Stderr, "running Entangling statistics sweep (Figures 12-15)...")
		suite := sweep(specs, harness.StatsConfigurations())
		sizes := []string{"entangling-2k", "entangling-4k", "entangling-8k"}
		if all || want["12"] {
			emit(harness.Fig12(suite, "entangling-4k"), "12")
		}
		if all || want["13"] {
			emit(harness.Fig13(suite, sizes), "13")
		}
		if all || want["14"] {
			emit(harness.Fig14(suite, sizes), "14")
		}
		if all || want["15"] {
			emit(harness.Fig15(suite, sizes), "15")
		}
	}

	// §IV-E: physical-address training.
	if all || want["physical"] {
		fmt.Fprintln(os.Stderr, "running physical-address sweep (Section IV-E)...")
		emit(harness.PhysicalTable(sweep(specs, harness.PhysicalConfigurations())), "physical")
	}

	// Extensions: split/context/PQ studies beyond the paper's figures.
	if all || want["ext"] {
		fmt.Fprintln(os.Stderr, "running extension sweeps (split / context / PQ)...")
		emit(harness.ExtSplitTable(sweep(specs, harness.SplitConfigurations())), "ext-split")
		emit(harness.ExtContextTable(sweep(specs, harness.ContextConfigurations())), "ext-context")
		pq, err := harness.ExtPQSweep(ctx, *warmup, *measure)
		if err != nil {
			fatal(err)
		}
		emit(pq, "ext-pq")
		emit(harness.ExtRetireTable(sweep(specs, harness.RetireConfigurations())), "ext-retire")
	}

	// Figure 16: CloudSuite.
	if all || want["16"] {
		fmt.Fprintln(os.Stderr, "running CloudSuite sweep (Figure 16)...")
		cloud := workload.CloudSuite()
		cfgs := []harness.Configuration{
			harness.Baseline,
			{Name: "nextline", Prefetcher: "nextline"},
			{Name: "sn4l", Prefetcher: "sn4l"},
			{Name: "mana-2k", Prefetcher: "mana-2k"},
			{Name: "mana-4k", Prefetcher: "mana-4k"},
			{Name: "entangling-2k", Prefetcher: "entangling-2k"},
			{Name: "entangling-4k", Prefetcher: "entangling-4k"},
			{Name: "ideal", IdealL1I: true},
		}
		emit(harness.Fig16(sweep(cloud, cfgs)), "16")
	}
}

// figNames lists every name -fig accepts.
var figNames = []string{"1", "2", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
	"table4", "physical", "ext", "headline", "quality", "all"}

// parseFigs splits a comma-separated -fig value into the set of
// requested names and rejects any name outside figNames, so a typo
// fails instead of silently printing nothing.
func parseFigs(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(figNames, f) {
			return nil, fmt.Errorf("unknown -fig name %q; valid names: %s", f, strings.Join(figNames, ","))
		}
		want[f] = true
	}
	return want, nil
}

// logProgress renders sweep lifecycle events for -progress. Fprintln
// with a single preformatted string keeps each event on one line even
// when workers emit concurrently.
func logProgress(ev harness.CellEvent) {
	cell := ev.Config + "/" + ev.Workload
	var line string
	switch ev.Type {
	case harness.CellStarted:
		line = fmt.Sprintf("cell %s: started", cell)
	case harness.CellFinished:
		line = fmt.Sprintf("cell %s: finished in %v", cell, ev.Duration.Round(time.Millisecond))
	case harness.CellFailed:
		line = fmt.Sprintf("cell %s: FAILED: %v", cell, ev.Err)
	case harness.CellRestored:
		line = fmt.Sprintf("cell %s: restored from checkpoint", cell)
		if ev.Source == harness.SourceCacheMemory {
			line = fmt.Sprintf("cell %s: reused from an earlier sweep", cell)
		}
	default:
		return
	}
	fmt.Fprintln(os.Stderr, line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "paperfigs:", err)
	os.Exit(1)
}
