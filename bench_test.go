// Benchmarks regenerating every table and figure of the paper's
// evaluation section (§IV). Each benchmark runs the corresponding
// experiment (sweeps are cached and shared across benchmarks, so the
// full -bench=. run stays in the minutes) and prints the resulting
// table once, so `go test -bench=. -benchmem` output doubles as the
// reproduction log. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured numbers at full scale;
// cmd/paperfigs regenerates everything with larger windows.
package entangling_test

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"entangling"
	"entangling/internal/core"
	"entangling/internal/harness"
	"entangling/internal/workload"
)

// benchOptions trades some convergence for runtime; EXPERIMENTS.md
// records the full-scale numbers.
func benchOptions() harness.Options {
	return harness.Options{
		Warmup:      1_200_000,
		Measure:     600_000,
		Parallelism: 0,
	}
}

func benchSpecs() []workload.Spec { return workload.CVPSuite(2) }

// Cached sweeps shared across benchmarks.
var (
	mainOnce  sync.Once
	mainSuite *harness.SuiteResults
	mainErr   error

	ablOnce  sync.Once
	ablSuite *harness.SuiteResults
	ablErr   error

	entOnce  sync.Once
	entSuite *harness.SuiteResults
	entErr   error

	physOnce  sync.Once
	physSuite *harness.SuiteResults
	physErr   error

	cloudOnce  sync.Once
	cloudSuite *harness.SuiteResults
	cloudErr   error

	printMu     sync.Mutex
	printedOnce = map[string]bool{}
)

func getMainSuite(b *testing.B) *harness.SuiteResults {
	mainOnce.Do(func() {
		mainSuite, mainErr = harness.RunSuite(benchSpecs(), harness.StandardConfigurations(), benchOptions())
	})
	if mainErr != nil {
		b.Fatal(mainErr)
	}
	return mainSuite
}

func getAblationSuite(b *testing.B) *harness.SuiteResults {
	ablOnce.Do(func() {
		ablSuite, ablErr = harness.RunSuite(benchSpecs(), harness.AblationConfigurations(), benchOptions())
	})
	if ablErr != nil {
		b.Fatal(ablErr)
	}
	return ablSuite
}

func getEntSuite(b *testing.B) *harness.SuiteResults {
	entOnce.Do(func() {
		cfgs := []harness.Configuration{
			harness.Baseline,
			{Name: "entangling-2k", Prefetcher: "entangling-2k"},
			{Name: "entangling-4k", Prefetcher: "entangling-4k"},
			{Name: "entangling-8k", Prefetcher: "entangling-8k"},
		}
		entSuite, entErr = harness.RunSuite(benchSpecs(), cfgs, benchOptions())
	})
	if entErr != nil {
		b.Fatal(entErr)
	}
	return entSuite
}

func getPhysSuite(b *testing.B) *harness.SuiteResults {
	physOnce.Do(func() {
		physSuite, physErr = harness.RunSuite(benchSpecs(), harness.PhysicalConfigurations(), benchOptions())
	})
	if physErr != nil {
		b.Fatal(physErr)
	}
	return physSuite
}

func getCloudSuite(b *testing.B) *harness.SuiteResults {
	cloudOnce.Do(func() {
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
		cloudSuite, cloudErr = harness.RunSuite(workload.CloudSuite(), cfgs, benchOptions())
	})
	if cloudErr != nil {
		b.Fatal(cloudErr)
	}
	return cloudSuite
}

// printTable emits a table once per process so the benchmark log
// doubles as the reproduction output.
func printTable(t *harness.Table) {
	printMu.Lock()
	defer printMu.Unlock()
	if printedOnce[t.Title] {
		return
	}
	printedOnce[t.Title] = true
	fmt.Fprintln(os.Stdout)
	fmt.Fprintln(os.Stdout, t.String())
}

// BenchmarkFig01Timeliness regenerates Figure 1: the per-miss optimal
// look-ahead-distance distribution on the no-prefetch baseline.
func BenchmarkFig01Timeliness(b *testing.B) {
	opt := benchOptions()
	specs := benchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig01(context.Background(), harness.NewResolver(opt), specs, opt)
		if err != nil {
			b.Fatal(err)
		}
		printTable(t)
	}
}

// BenchmarkFig02LookaheadAccuracy regenerates Figure 2: accuracy of a
// fixed look-ahead-d prefetcher as d grows.
func BenchmarkFig02LookaheadAccuracy(b *testing.B) {
	opt := benchOptions()
	opt.Warmup /= 2
	opt.Measure /= 2
	specs := benchSpecs()
	for i := 0; i < b.N; i++ {
		t, err := harness.Fig02(context.Background(), harness.NewResolver(opt), specs, opt)
		if err != nil {
			b.Fatal(err)
		}
		printTable(t)
	}
}

// BenchmarkFig06PerfVsStorage regenerates Figure 6: geomean speedup vs
// storage for the full §IV-B lineup.
func BenchmarkFig06PerfVsStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig06(getMainSuite(b)))
	}
}

// BenchmarkFig07IPCCurves regenerates Figure 7 (sorted normalized IPC).
func BenchmarkFig07IPCCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig07(getMainSuite(b), 9))
	}
}

// BenchmarkFig08MissRatio regenerates Figure 8 (sorted miss ratios).
func BenchmarkFig08MissRatio(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig08(getMainSuite(b), 9))
	}
}

// BenchmarkFig09Coverage regenerates Figure 9 (sorted coverage).
func BenchmarkFig09Coverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig09(getMainSuite(b), 9))
	}
}

// BenchmarkFig10Accuracy regenerates Figure 10 (sorted accuracy).
func BenchmarkFig10Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig10(getMainSuite(b), 9))
	}
}

// BenchmarkTable04Energy regenerates Table IV: per-level energy and
// normalized geomean.
func BenchmarkTable04Energy(b *testing.B) {
	model := entangling.DefaultEnergyModel()
	for i := 0; i < b.N; i++ {
		printTable(harness.Table04(getMainSuite(b), model))
	}
}

// BenchmarkFig11Ablation regenerates Figure 11: the BB / BBEnt /
// BBEntBB / Ent / BBEntBB-Merge breakdown.
func BenchmarkFig11Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig11(getAblationSuite(b)))
	}
}

// BenchmarkFig12Compression regenerates Figure 12: destination storage
// format distribution.
func BenchmarkFig12Compression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig12(getEntSuite(b), "entangling-4k"))
	}
}

// BenchmarkFig13Destinations regenerates Figure 13: destinations found
// per Entangled-table hit.
func BenchmarkFig13Destinations(b *testing.B) {
	sizes := []string{"entangling-2k", "entangling-4k", "entangling-8k"}
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig13(getEntSuite(b), sizes))
	}
}

// BenchmarkFig14BBSize regenerates Figure 14: current-block size.
func BenchmarkFig14BBSize(b *testing.B) {
	sizes := []string{"entangling-2k", "entangling-4k", "entangling-8k"}
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig14(getEntSuite(b), sizes))
	}
}

// BenchmarkFig15DstBBSize regenerates Figure 15: destination-block
// size.
func BenchmarkFig15DstBBSize(b *testing.B) {
	sizes := []string{"entangling-2k", "entangling-4k", "entangling-8k"}
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig15(getEntSuite(b), sizes))
	}
}

// BenchmarkSecIVEPhysical regenerates §IV-E: Entangling trained on
// physical addresses.
func BenchmarkSecIVEPhysical(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.PhysicalTable(getPhysSuite(b)))
	}
}

// BenchmarkFig16CloudSuite regenerates Figure 16: the CloudSuite-like
// workloads.
func BenchmarkFig16CloudSuite(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Fig16(getCloudSuite(b)))
	}
}

// BenchmarkTable01VirtualCompression exercises the Table I compression
// path (encode + decode of a destination under every virtual mode).
func BenchmarkTable01VirtualCompression(b *testing.B) {
	benchCompression(b, core.Virtual)
}

// BenchmarkTable02PhysicalCompression exercises the Table II
// compression path.
func BenchmarkTable02PhysicalCompression(b *testing.B) {
	benchCompression(b, core.Physical)
}

func benchCompression(b *testing.B, space core.AddressSpace) {
	rng := rand.New(rand.NewSource(1))
	srcs := make([]uint64, 1024)
	dsts := make([]uint64, 1024)
	for i := range srcs {
		srcs[i] = rng.Uint64()
		dsts[i] = srcs[i] ^ uint64(rng.Intn(1<<uint(rng.Intn(40)+1)))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		k := i % len(srcs)
		for mode := 1; mode <= core.MaxMode(space); mode++ {
			sink += core.RoundTrip(space, mode, srcs[k], dsts[k])
		}
	}
	_ = sink
}

// BenchmarkSimulatorThroughput measures raw simulated instructions per
// second of the machine with the Entangling-4K prefetcher (Table III
// substrate performance, not a paper figure).
func BenchmarkSimulatorThroughput(b *testing.B) {
	p := workload.Preset(workload.Srv)
	p.Seed = 1
	cfg := harness.Configuration{Name: "entangling-4k", Prefetcher: "entangling-4k"}
	spec := workload.Spec{Name: "srv-bench", Params: p}
	// The trace is built once, outside the timer: the metric is the
	// machine's rate, not the workload walker's.
	opt := harness.Options{Measure: 500_000, Traces: workload.NewTraceCache()}
	if _, err := opt.Traces.Pin(spec, opt.Measure); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		r, err := harness.RunCell(context.Background(), cfg, spec, opt)
		if err != nil {
			b.Fatal(err)
		}
		total += r.R.Instructions
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkExtSplitTable runs the paper's future-work study (§III-C3):
// basic-block sizes and entangled pairs in separate structures,
// compared against the unified table at each budget.
func BenchmarkExtSplitTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := extSuite(b, "split", harness.SplitConfigurations())
		printTable(harness.ExtSplitTable(suite))
	}
}

// BenchmarkExtContext reproduces the paper's rejected design (§III-B1):
// replicating sources per call context overloads the Entangled table
// and loses performance — a negative result worth keeping checkable.
func BenchmarkExtContext(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := extSuite(b, "ctx", harness.ContextConfigurations())
		printTable(harness.ExtContextTable(suite))
	}
}

// BenchmarkExtPQSweep quantifies §IV-D's closing remark: "our
// prefetcher would benefit from a larger prefetch queue (32 entries
// employed in our evaluation), as less prefetches would be discarded."
func BenchmarkExtPQSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := harness.ExtPQSweep(context.Background(), 1_200_000, 600_000)
		if err != nil {
			b.Fatal(err)
		}
		printTable(t)
	}
}

// Extension sweeps are cached like the figure sweeps.
var (
	extMu     sync.Mutex
	extSuites = map[string]*harness.SuiteResults{}
)

func extSuite(b *testing.B, key string, cfgs []harness.Configuration) *harness.SuiteResults {
	extMu.Lock()
	defer extMu.Unlock()
	if s, ok := extSuites[key]; ok {
		return s
	}
	s, err := harness.RunSuite(benchSpecs(), cfgs, benchOptions())
	if err != nil {
		b.Fatal(err)
	}
	extSuites[key] = s
	return s
}

// BenchmarkExtRetireTrigger runs the §III-C1 prefetch-on-retire study:
// the wrong-path-safe trigger point and its timeliness cost.
func BenchmarkExtRetireTrigger(b *testing.B) {
	for i := 0; i < b.N; i++ {
		suite := extSuite(b, "retire", harness.RetireConfigurations())
		printTable(harness.ExtRetireTable(suite))
	}
}

// BenchmarkHeadline summarizes the abstract-level claims (speedups per
// budget, gap to ideal, coverage, accuracy, hit rate) from the main
// sweep.
func BenchmarkHeadline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printTable(harness.Headline(getMainSuite(b)))
	}
}
