// Command entangling-sim runs one workload under one prefetcher
// configuration and prints the run's metrics.
//
// Examples:
//
//	entangling-sim -workload srv -seed 3 -prefetcher entangling-4k
//	entangling-sim -workload cassandra -prefetcher mana-4k -measure 2000000
//	entangling-sim -workload int -prefetcher ideal -physical
//	entangling-sim -workload srv -metrics-out run.json
//	entangling-sim -trace srv.trace -checkpoint ck
//	entangling-sim -cpuprofile cpu.pprof -measure 5000000
//	entangling-sim -list
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"entangling"
	"entangling/internal/harness"
	"entangling/internal/workload"
)

func main() {
	var (
		wl         = flag.String("workload", "srv", "workload: crypto|int|fp|srv|cloud or a CloudSuite name (cassandra, cloud9, nutch, streaming)")
		traceIn    = flag.String("trace", "", "run from a trace file (see cmd/tracegen) instead of a synthetic workload")
		seed       = flag.Uint64("seed", 1, "workload seed (variant selector)")
		pf         = flag.String("prefetcher", "entangling-4k", `prefetcher configuration, "no", or "ideal"`)
		warmup     = flag.Uint64("warmup", 2_000_000, "warm-up instructions (discarded)")
		measure    = flag.Uint64("measure", 1_000_000, "measured instructions")
		phys       = flag.Bool("physical", false, "train hierarchy and prefetcher on physical addresses")
		l1iWays    = flag.Int("l1i-ways", 0, "override L1I associativity (16 = 64KB, 24 = 96KB)")
		list       = flag.Bool("list", false, "list registered prefetchers and exit")
		base       = flag.Bool("baseline", true, "also run the no-prefetch baseline for speedup/coverage")
		metricsOut = flag.String("metrics-out", "", "write machine-readable run metrics to this file (.csv for CSV, JSON otherwise)")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulation to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile (post-run) to this file")
		checkpoint = flag.String("checkpoint", "", "persist completed runs into this directory (crash-safe, keyed by config x workload x windows)")
		resume     = flag.Bool("resume", false, "reuse a matching record from -checkpoint instead of re-running")
	)
	flag.Parse()
	if *resume && *checkpoint == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}

	if *list {
		for _, n := range entangling.Prefetchers() {
			fmt.Println(n)
		}
		return
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	cfg := entangling.Configuration{Name: *pf, Physical: *phys, L1IWays: *l1iWays}
	switch *pf {
	case "no":
	case "ideal":
		cfg.IdealL1I = true
	default:
		cfg.Prefetcher = *pf
	}

	var spec entangling.WorkloadSpec
	var err error
	if *traceIn != "" {
		spec, err = traceSpec(*traceIn)
	} else {
		spec, err = resolveWorkload(*wl, *seed)
	}
	if err != nil {
		fatal(err)
	}
	cfgs := []entangling.Configuration{cfg}
	if *base && *pf != "no" {
		cfgs = append(cfgs, entangling.Configuration{Name: "no", Physical: *phys})
	}
	opt := harness.Options{
		Warmup: *warmup, Measure: *measure, Parallelism: 1, Resume: *resume,
		Progress: func(ev harness.CellEvent) {
			if ev.Type == harness.CellRestored {
				fmt.Fprintf(os.Stderr, "resumed %s/%s from checkpoint\n", ev.Config, ev.Workload)
			}
		},
	}
	if *checkpoint != "" {
		if opt.Checkpoint, err = harness.OpenCheckpointStore(*checkpoint); err != nil {
			fatal(err)
		}
	}
	suite, err := harness.RunSuite([]entangling.WorkloadSpec{spec}, cfgs, opt)
	if err != nil {
		fatal(err)
	}
	r := suite.Runs[cfg.Name][spec.Name].R
	var baseline *entangling.Results
	if len(cfgs) > 1 {
		b := suite.Runs["no"][spec.Name].R
		baseline = &b
	}

	fmt.Printf("workload           %s (seed %d)\n", spec.Name, *seed)
	fmt.Printf("prefetcher         %s (%.2f KB)\n", r.PrefetcherName, float64(r.StorageBits)/8/1024)
	fmt.Printf("instructions       %d (+%d warm-up)\n", r.Instructions, *warmup)
	fmt.Printf("cycles             %d\n", r.Cycles)
	fmt.Printf("IPC                %.4f\n", r.IPC)
	fmt.Printf("L1I accesses       %d\n", r.L1I.Accesses)
	fmt.Printf("L1I hit rate       %.4f\n", r.L1IHitRate())
	fmt.Printf("L1I MPKI           %.2f\n", r.L1IMPKI())
	fmt.Printf("prefetches issued  %d\n", r.L1I.PrefetchIssued)
	fmt.Printf("prefetch accuracy  %.3f\n", r.L1I.Accuracy())
	fmt.Printf("timely / late      %d / %d\n", r.L1I.TimelyPrefetchHits, r.L1I.LatePrefetches)
	fmt.Printf("early / inaccurate %d / %d\n", r.Lifecycle.EarlyEvicted, r.Lifecycle.Inaccurate())
	fmt.Printf("late cycles saved  %d (%.1f/late)\n", r.Lifecycle.LateCyclesSaved, r.Lifecycle.MeanSaved())
	fmt.Printf("mean lead cycles   %.1f\n", r.Lifecycle.MeanLead())
	st := r.Stalls
	fmt.Printf("stall cycles       %d (l1i %d, btb %d, mispredict %d, ftq %d, rob %d)\n",
		st.Total(), st.L1IMiss, st.BTBMiss, st.Mispredict, st.FTQFull, st.ROBFull)
	fmt.Printf("cond br accuracy   %.4f\n", r.CondAccuracy)
	if baseline != nil {
		cov := 0.0
		if baseline.L1I.Misses > 0 {
			cov = 1 - float64(r.L1I.Misses)/float64(baseline.L1I.Misses)
		}
		fmt.Printf("baseline IPC       %.4f\n", baseline.IPC)
		fmt.Printf("speedup            %+.2f%%\n", (r.IPC/baseline.IPC-1)*100)
		fmt.Printf("coverage           %.3f\n", cov)
	}

	if *metricsOut != "" {
		m := harness.SuiteMetrics{SchemaVersion: harness.MetricsSchemaVersion}
		category := string(spec.Params.Category)
		m.Runs = append(m.Runs, harness.MetricsForRun(cfg.Name, spec.Name, category, r, baseline))
		if baseline != nil {
			m.Runs = append(m.Runs, harness.MetricsForRun("no", spec.Name, category, *baseline, nil))
		}
		if err := harness.WriteMetricsFile(*metricsOut, m); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}

	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}

func resolveWorkload(name string, seed uint64) (entangling.WorkloadSpec, error) {
	switch entangling.Category(name) {
	case entangling.Crypto, entangling.Int, entangling.FP, entangling.Srv, entangling.Cloud,
		entangling.JIT, entangling.Micro, entangling.Serverless:
		p := entangling.VaryWorkload(entangling.WorkloadPreset(entangling.Category(name)), seed)
		p.Name = fmt.Sprintf("%s-%d", name, seed)
		return entangling.WorkloadSpec{Name: p.Name, Params: p}, nil
	}
	for _, s := range entangling.CloudWorkloads() {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range entangling.AdversarialWorkloads() {
		if s.Name == name {
			return s, nil
		}
	}
	return entangling.WorkloadSpec{}, fmt.Errorf(
		"unknown workload %q (want crypto|int|fp|srv|cloud|jit|micro|serverless or one of: %s)",
		name, strings.Join(namedWorkloads(), ", "))
}

func namedWorkloads() []string {
	var out []string
	for _, s := range entangling.CloudWorkloads() {
		out = append(out, s.Name)
	}
	for _, s := range entangling.AdversarialWorkloads() {
		out = append(out, s.Name)
	}
	return out
}

// traceSpec names a trace file as a workload: its content address is
// the SHA-256 of the file, and each cell that needs the stream reopens
// the path.
func traceSpec(path string) (entangling.WorkloadSpec, error) {
	f, err := os.Open(path)
	if err != nil {
		return entangling.WorkloadSpec{}, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return entangling.WorkloadSpec{}, err
	}
	return workload.TraceSpec(path, hex.EncodeToString(h.Sum(nil)), func() (io.ReadCloser, error) {
		return os.Open(path)
	}), nil
}
