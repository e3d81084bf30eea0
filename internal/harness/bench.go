package harness

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"entangling/internal/workload"
)

// This file implements the benchmark regression harness: a pinned
// mini-sweep whose wall-clock time, throughput, allocation rate and
// peak memory are recorded as a versioned JSON point (BENCH_*.json),
// so every PR can append a comparable number to the repository's
// performance trajectory. See EXPERIMENTS.md, "Benchmark methodology".

// BenchSchemaVersion identifies the BENCH_*.json layout; bump it on any
// incompatible change.
const BenchSchemaVersion = 1

// BenchSweep pins the benchmark workload: the exact cells, windows and
// worker count a benchmark point was measured on. Two points are only
// comparable when their sweeps match.
type BenchSweep struct {
	Configs     []string `json:"configs"`
	Workloads   []string `json:"workloads"`
	Warmup      uint64   `json:"warmup"`
	Measure     uint64   `json:"measure"`
	Parallelism int      `json:"parallelism"`
	Cells       int      `json:"cells"`
}

// BenchPoint is one measured benchmark result.
type BenchPoint struct {
	SchemaVersion int        `json:"schema_version"`
	Label         string     `json:"label"`
	GoVersion     string     `json:"go_version"`
	GOMAXPROCS    int        `json:"gomaxprocs"`
	Sweep         BenchSweep `json:"sweep"`

	// Iterations is how many times the sweep ran; the timing fields
	// report the fastest iteration (least-noise estimator).
	Iterations  int     `json:"iterations"`
	WallSeconds float64 `json:"wall_seconds"`
	RunsPerSec  float64 `json:"runs_per_sec"`
	// Instructions is the total simulated (warmup+measure) instruction
	// count of one sweep iteration.
	Instructions uint64  `json:"instructions"`
	InstrsPerSec float64 `json:"instrs_per_sec"`

	// Allocation profile of the fastest iteration.
	AllocsPerRun   float64 `json:"allocs_per_run"`
	AllocsPerInstr float64 `json:"allocs_per_instr"`
	BytesPerInstr  float64 `json:"bytes_per_instr"`

	// TraceBuildSeconds is the one-time cost of materializing the
	// sweep's workload traces into the shared cache. It is paid once up
	// front (the traces are pinned across iterations), so it is
	// reported separately from the per-iteration sweep wall-clock.
	TraceBuildSeconds float64 `json:"trace_build_seconds"`

	// PeakRSSBytes is the process high-water mark (VmHWM) after the
	// sweep; 0 when the platform does not expose it.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`

	// MetricsSHA256 fingerprints the sweep's metrics JSON export. Two
	// benchmark points with the same sweep must agree on it: the
	// optimization trajectory is only valid while simulated behaviour
	// is unchanged.
	MetricsSHA256 string `json:"metrics_sha256"`
}

// BenchFile is the committed BENCH_<label>.json document: the point
// measured before the change (when available) and after it.
type BenchFile struct {
	SchemaVersion int         `json:"schema_version"`
	Label         string      `json:"label"`
	Before        *BenchPoint `json:"before,omitempty"`
	After         BenchPoint  `json:"after"`
	// SpeedupVsBefore is After/Before wall-clock improvement (e.g. 2.1
	// means the sweep got 2.1x faster); 0 when Before is absent.
	SpeedupVsBefore float64 `json:"speedup_vs_before,omitempty"`
}

// PinnedBenchSpecs returns the fixed workload set of the benchmark
// mini-sweep. Pinned: changing it invalidates cross-PR comparisons.
func PinnedBenchSpecs() []workload.Spec { return workload.CVPSuite(1) }

// PinnedBenchConfigurations returns the fixed configuration lineup of
// the benchmark mini-sweep: baseline, the strongest competitors, both
// low-budget entangling points, and the ideal bound — enough reuse per
// workload trace to expose redundant-generation regressions.
func PinnedBenchConfigurations() []Configuration {
	return []Configuration{
		Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
		{Name: "mana-4k", Prefetcher: "mana-4k"},
		{Name: "djolt", Prefetcher: "djolt"},
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
		{Name: "entangling-4k", Prefetcher: "entangling-4k"},
		{Name: "ideal", IdealL1I: true},
	}
}

// PinnedBenchOptions returns the fixed windows of the mini-sweep.
func PinnedBenchOptions() Options {
	return Options{
		Warmup:      400_000,
		Measure:     200_000,
		PerCategory: 1,
		Parallelism: runtime.GOMAXPROCS(0),
	}
}

// RunBench executes the pinned mini-sweep `iterations` times and
// returns the measured point. The fastest iteration provides the
// timing numbers; the metrics fingerprint is asserted identical across
// iterations (a changed hash means nondeterminism, which would make
// the whole trajectory meaningless).
func RunBench(label string, iterations int) (BenchPoint, error) {
	return RunBenchCtx(context.Background(), label, iterations)
}

// RunBenchCtx is RunBench with cooperative cancellation: an interrupt
// abandons the remaining iterations instead of leaving a half-measured
// point behind.
func RunBenchCtx(ctx context.Context, label string, iterations int) (BenchPoint, error) {
	if iterations < 1 {
		iterations = 1
	}
	specs := PinnedBenchSpecs()
	cfgs := PinnedBenchConfigurations()
	opt := PinnedBenchOptions()

	p := BenchPoint{
		SchemaVersion: BenchSchemaVersion,
		Label:         label,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Iterations:    iterations,
		Sweep: BenchSweep{
			Warmup:      opt.Warmup,
			Measure:     opt.Measure,
			Parallelism: opt.Parallelism,
			Cells:       len(specs) * len(cfgs),
		},
	}
	for _, c := range cfgs {
		p.Sweep.Configs = append(p.Sweep.Configs, c.Name)
	}
	for _, s := range specs {
		p.Sweep.Workloads = append(p.Sweep.Workloads, s.Name)
	}

	// Materialize every workload trace once, pinned for the lifetime of
	// the benchmark: iterations then measure sweep time with warm
	// traces, which is the steady-state cost the cache design targets.
	// The one-time build cost is reported separately.
	cache := workload.NewTraceCache()
	opt.Traces = cache
	buildStart := time.Now()
	for _, s := range specs {
		if _, err := cache.Pin(s, opt.Warmup+opt.Measure); err != nil {
			return BenchPoint{}, fmt.Errorf("bench: materializing %s: %w", s.Name, err)
		}
	}
	p.TraceBuildSeconds = time.Since(buildStart).Seconds()

	var best time.Duration
	var bestAllocs, bestBytes uint64
	for i := 0; i < iterations; i++ {
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		s, err := RunSuiteCtx(ctx, specs, cfgs, opt)
		elapsed := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return BenchPoint{}, fmt.Errorf("bench: sweep failed: %w", err)
		}

		var instrs uint64
		for _, perWl := range s.Runs {
			for range perWl {
				instrs += opt.Warmup + opt.Measure
			}
		}
		sum := sha256.Sum256(metricsBytes(s))
		hash := hex.EncodeToString(sum[:])
		if p.MetricsSHA256 == "" {
			p.MetricsSHA256 = hash
			p.Instructions = instrs
		} else if p.MetricsSHA256 != hash {
			return BenchPoint{}, fmt.Errorf(
				"bench: metrics fingerprint changed between iterations (%s vs %s): simulation is nondeterministic",
				p.MetricsSHA256, hash)
		}
		if best == 0 || elapsed < best {
			best = elapsed
			bestAllocs = m1.Mallocs - m0.Mallocs
			bestBytes = m1.TotalAlloc - m0.TotalAlloc
		}
	}

	cells := float64(p.Sweep.Cells)
	p.WallSeconds = best.Seconds()
	p.RunsPerSec = cells / best.Seconds()
	p.InstrsPerSec = float64(p.Instructions) / best.Seconds()
	p.AllocsPerRun = float64(bestAllocs) / cells
	p.AllocsPerInstr = float64(bestAllocs) / float64(p.Instructions)
	p.BytesPerInstr = float64(bestBytes) / float64(p.Instructions)
	p.PeakRSSBytes = readPeakRSS()
	return p, nil
}

// metricsBytes serializes a sweep's metrics export for fingerprinting.
func metricsBytes(s *SuiteResults) []byte {
	var sb strings.Builder
	if err := WriteMetricsJSON(&sb, s.Metrics()); err != nil {
		panic(err) // in-memory marshal of a plain struct cannot fail
	}
	return []byte(sb.String())
}

// ValidateBenchPoint checks a point for schema conformance.
func ValidateBenchPoint(p *BenchPoint) error {
	switch {
	case p.SchemaVersion != BenchSchemaVersion:
		return fmt.Errorf("bench: schema_version %d, want %d", p.SchemaVersion, BenchSchemaVersion)
	case p.Label == "":
		return fmt.Errorf("bench: missing label")
	case p.GoVersion == "":
		return fmt.Errorf("bench: missing go_version")
	case len(p.Sweep.Configs) == 0 || len(p.Sweep.Workloads) == 0:
		return fmt.Errorf("bench: sweep must name its configs and workloads")
	case p.Sweep.Cells != len(p.Sweep.Configs)*len(p.Sweep.Workloads):
		return fmt.Errorf("bench: cells %d != %d configs x %d workloads",
			p.Sweep.Cells, len(p.Sweep.Configs), len(p.Sweep.Workloads))
	case p.WallSeconds <= 0:
		return fmt.Errorf("bench: wall_seconds must be positive")
	case p.RunsPerSec <= 0 || p.InstrsPerSec <= 0:
		return fmt.Errorf("bench: throughput fields must be positive")
	case p.Instructions == 0:
		return fmt.Errorf("bench: missing instruction count")
	case len(p.MetricsSHA256) != 64:
		return fmt.Errorf("bench: metrics_sha256 must be a hex SHA-256")
	}
	return nil
}

// ValidateBenchFile checks a BENCH_*.json document.
func ValidateBenchFile(f *BenchFile) error {
	if f.SchemaVersion != BenchSchemaVersion {
		return fmt.Errorf("bench: file schema_version %d, want %d", f.SchemaVersion, BenchSchemaVersion)
	}
	if f.Label == "" {
		return fmt.Errorf("bench: file missing label")
	}
	if err := ValidateBenchPoint(&f.After); err != nil {
		return fmt.Errorf("after: %w", err)
	}
	if f.Before != nil {
		if err := ValidateBenchPoint(f.Before); err != nil {
			return fmt.Errorf("before: %w", err)
		}
	}
	return nil
}

// WriteBenchFile writes the document as indented JSON.
func WriteBenchFile(w io.Writer, f BenchFile) error {
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// ReadBenchFile parses and validates a BENCH_*.json document.
func ReadBenchFile(r io.Reader) (BenchFile, error) {
	var f BenchFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return BenchFile{}, fmt.Errorf("bench: parsing: %w", err)
	}
	if err := ValidateBenchFile(&f); err != nil {
		return BenchFile{}, err
	}
	return f, nil
}
