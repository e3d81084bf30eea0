package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"entangling/internal/workload"
)

func samplePoint(label string) BenchPoint {
	return BenchPoint{
		SchemaVersion: BenchSchemaVersion,
		Label:         label,
		GoVersion:     "go1.24.0",
		GOMAXPROCS:    1,
		Sweep: BenchSweep{
			Configs:     []string{"baseline", "entangling-4k"},
			Workloads:   []string{"server-a", "client-b"},
			Warmup:      400_000,
			Measure:     200_000,
			Parallelism: 1,
			Cells:       4,
		},
		Iterations:        3,
		WallSeconds:       0.9,
		RunsPerSec:        4.4,
		Instructions:      2_400_000,
		InstrsPerSec:      2.6e6,
		AllocsPerRun:      135,
		AllocsPerInstr:    0.0002,
		BytesPerInstr:     0.01,
		TraceBuildSeconds: 0.11,
		PeakRSSBytes:      150 << 20,
		MetricsSHA256:     strings.Repeat("ab", 32),
	}
}

func TestBenchFileRoundTrip(t *testing.T) {
	before := samplePoint("PR1")
	f := BenchFile{
		SchemaVersion:   BenchSchemaVersion,
		Label:           "PR2",
		Before:          &before,
		After:           samplePoint("PR2"),
		SpeedupVsBefore: 2.04,
	}
	f.After.WallSeconds = 0.45
	f.After.TraceBuildSeconds = 0.07

	var buf bytes.Buffer
	if err := WriteBenchFile(&buf, f); err != nil {
		t.Fatal(err)
	}
	// The one-time trace build cost must survive the trip — it is the
	// field that keeps warm-cache sweep timing honest.
	if !strings.Contains(buf.String(), `"trace_build_seconds": 0.07`) {
		t.Errorf("serialized file missing trace_build_seconds:\n%s", buf.String())
	}

	got, err := ReadBenchFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.After, f.After) {
		t.Errorf("after point changed in round trip:\ngot  %+v\nwant %+v", got.After, f.After)
	}
	if got.Before == nil || !reflect.DeepEqual(*got.Before, before) {
		t.Errorf("before point changed in round trip: %+v", got.Before)
	}
	if got.SpeedupVsBefore != f.SpeedupVsBefore {
		t.Errorf("speedup %v, want %v", got.SpeedupVsBefore, f.SpeedupVsBefore)
	}
}

func TestReadBenchFileRejectsUnknownFields(t *testing.T) {
	f := BenchFile{SchemaVersion: BenchSchemaVersion, Label: "X", After: samplePoint("X")}
	var buf bytes.Buffer
	if err := WriteBenchFile(&buf, f); err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(buf.String(), `"label"`, `"surprise": 1, "label"`, 1)
	if _, err := ReadBenchFile(strings.NewReader(doc)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestValidateBenchPointErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*BenchPoint)
	}{
		{"wrong schema version", func(p *BenchPoint) { p.SchemaVersion = 99 }},
		{"missing label", func(p *BenchPoint) { p.Label = "" }},
		{"missing go version", func(p *BenchPoint) { p.GoVersion = "" }},
		{"empty sweep", func(p *BenchPoint) { p.Sweep.Configs = nil }},
		{"cell count mismatch", func(p *BenchPoint) { p.Sweep.Cells = 7 }},
		{"nonpositive wall", func(p *BenchPoint) { p.WallSeconds = 0 }},
		{"nonpositive throughput", func(p *BenchPoint) { p.RunsPerSec = 0 }},
		{"missing instructions", func(p *BenchPoint) { p.Instructions = 0 }},
		{"malformed fingerprint", func(p *BenchPoint) { p.MetricsSHA256 = "abc" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := samplePoint("X")
			if err := ValidateBenchPoint(&p); err != nil {
				t.Fatalf("sample point invalid before mutation: %v", err)
			}
			tc.mutate(&p)
			if err := ValidateBenchPoint(&p); err == nil {
				t.Error("mutation accepted")
			}
		})
	}
}

func TestValidateBenchFileErrors(t *testing.T) {
	ok := BenchFile{SchemaVersion: BenchSchemaVersion, Label: "X", After: samplePoint("X")}
	if err := ValidateBenchFile(&ok); err != nil {
		t.Fatalf("valid file rejected: %v", err)
	}

	bad := ok
	bad.SchemaVersion = 2
	if err := ValidateBenchFile(&bad); err == nil {
		t.Error("wrong file schema accepted")
	}

	bad = ok
	bad.Label = ""
	if err := ValidateBenchFile(&bad); err == nil {
		t.Error("missing file label accepted")
	}

	bad = ok
	bad.After.WallSeconds = -1
	if err := ValidateBenchFile(&bad); err == nil || !strings.Contains(err.Error(), "after:") {
		t.Errorf("invalid after point not attributed: %v", err)
	}

	badBefore := samplePoint("X")
	badBefore.Instructions = 0
	bad = ok
	bad.Before = &badBefore
	if err := ValidateBenchFile(&bad); err == nil || !strings.Contains(err.Error(), "before:") {
		t.Errorf("invalid before point not attributed: %v", err)
	}
}

// TestPinnedBenchFingerprint pins the metrics fingerprint of the 28-cell
// benchmark sweep, the contract every refactor must keep: any change to
// simulated behaviour or to the metrics export moves it.
func TestPinnedBenchFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full 28-cell pinned sweep")
	}
	const want = "7a8390cd658a6e433effaac4463bc5eb18e0856b1f157235b1c40f34e17f840b"
	p, err := RunBench("t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.MetricsSHA256 != want {
		t.Errorf("pinned sweep fingerprint %s, want %s", p.MetricsSHA256, want)
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
