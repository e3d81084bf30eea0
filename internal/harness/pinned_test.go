package harness

import (
	"context"
	"runtime"
	"testing"

	"entangling/internal/workload"
)

// TestPinnedBenchFingerprint pins the metrics fingerprint of a cold
// run of the 28-cell pinned sweep, the contract every refactor must
// keep: any change to simulated behaviour or to the metrics export
// moves it. It also gates the sweep's allocations per cell: a cold
// sweep measures under 300, and a hot loop that allocates per
// instruction again (thousands per cell) fails.
func TestPinnedBenchFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 28-cell pinned sweep")
	}
	const want = "7a8390cd658a6e433effaac4463bc5eb18e0856b1f157235b1c40f34e17f840b"
	specs, cfgs := PinnedBenchSpecs(), PinnedBenchConfigurations()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s, err := RunSuiteCtx(context.Background(), specs, cfgs, PinnedBenchOptions())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if _, sha := MetricsFingerprint(s.Metrics()); sha != want {
		t.Errorf("pinned sweep fingerprint %s, want %s", sha, want)
	}
	const ceiling = 600
	cells := len(specs) * len(cfgs)
	if perCell := float64(m1.Mallocs-m0.Mallocs) / float64(cells); perCell >= ceiling {
		t.Errorf("pinned sweep allocated %.0f times per cell, ceiling %d — the hot loop is allocating again", perCell, ceiling)
	}
}

// TestPaperLineupFingerprint pins the Fig. 6 lineup — every
// StandardConfigurations entry over workload.CVPSuite(2) at 400k+200k,
// 128 cells — to the fingerprint of the benchmark's sweep-paper
// workload, so every baseline prefetcher (RDIP, FNL+MMA, MANA-2K/8K,
// SN4L, EPI) is pinned by the test suite and not only by a benchmark
// run.
func TestPaperLineupFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 128-cell paper sweep")
	}
	const want = "72edabd119c3cb95657a7f706c78bad77990cd50b50990423e6cb4499d3aa8c6"
	opt := Options{Warmup: 400_000, Measure: 200_000, Parallelism: runtime.GOMAXPROCS(0)}
	s, err := RunSuiteCtx(context.Background(), workload.CVPSuite(2), StandardConfigurations(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, sha := MetricsFingerprint(s.Metrics()); sha != want {
		t.Errorf("paper lineup fingerprint %s, want %s", sha, want)
	}
}

// benchCell returns a small cached-trace cell of the pinned sweep for
// allocation measurements.
func benchCell(tb testing.TB, warmup, measure uint64) (Configuration, workload.Spec, *workload.Trace) {
	tb.Helper()
	specs := PinnedBenchSpecs()
	if len(specs) == 0 {
		tb.Fatal("no pinned specs")
	}
	cfgs := PinnedBenchConfigurations()
	cfg := cfgs[len(cfgs)-2] // an entangling config: the busiest hot path
	tr, err := workload.Materialize(specs[0], warmup+measure)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, specs[0], tr
}

// TestRunTraceAllocsCeiling pins the allocation budget of the
// cached-trace run path. The hot loop itself must be allocation-free;
// what remains is machine construction plus a handful of metric
// materializations, all independent of instruction count. The ceiling
// has ~2x headroom over the measured count so it fails on a reverted
// hot loop (thousands of allocations) and not on noise.
func TestRunTraceAllocsCeiling(t *testing.T) {
	const warmup, measure = 20_000, 10_000
	cfg, spec, tr := benchCell(t, warmup, measure)

	allocs := testing.AllocsPerRun(3, func() {
		if _, err := RunTrace(cfg, spec, tr, warmup, measure); err != nil {
			t.Fatal(err)
		}
	})
	const ceiling = 600
	if allocs > ceiling {
		t.Errorf("RunTrace allocated %.0f times per run, ceiling %d — the hot loop is allocating again", allocs, ceiling)
	}
}

// BenchmarkRunTrace measures the steady-state cost of one cached-trace
// cell; run with -benchmem to see allocs/op.
func BenchmarkRunTrace(b *testing.B) {
	const warmup, measure = 20_000, 10_000
	cfg, spec, tr := benchCell(b, warmup, measure)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrace(cfg, spec, tr, warmup, measure); err != nil {
			b.Fatal(err)
		}
	}
}
