package harness

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"entangling/internal/core"
	"entangling/internal/workload"
)

func TestCategoryMeanAndCategories(t *testing.T) {
	s := &SuiteResults{
		Runs: map[string]map[string]RunResult{
			"x": {
				"a": {Config: "x", Workload: "a", Category: workload.Srv,
					Ent: &core.Stats{TableHits: 10, DstFound: 20}},
				"b": {Config: "x", Workload: "b", Category: workload.Srv,
					Ent: &core.Stats{TableHits: 10, DstFound: 40}},
				"c": {Config: "x", Workload: "c", Category: workload.Crypto,
					Ent: nil}, // no entangling stats: excluded
			},
		},
		ConfigOrder:   []string{"x"},
		WorkloadOrder: []string{"a", "b", "c"},
	}
	means, devs := s.CategoryMean("x", entMetric(func(e *core.Stats) (float64, bool) {
		if e.TableHits == 0 {
			return 0, false
		}
		return float64(e.DstFound) / float64(e.TableHits), true
	}))
	if means[workload.Srv] != 3 {
		t.Errorf("srv mean = %v, want 3", means[workload.Srv])
	}
	if devs[workload.Srv] != 1 {
		t.Errorf("srv stddev = %v, want 1", devs[workload.Srv])
	}
	if _, ok := means[workload.Crypto]; ok {
		t.Error("category with no samples should be absent")
	}
	cats := s.Categories()
	if len(cats) != 2 {
		t.Errorf("categories = %v", cats)
	}
}

func TestSuiteMetricsWithoutBaseline(t *testing.T) {
	s := &SuiteResults{
		Runs:          map[string]map[string]RunResult{"x": {}},
		ConfigOrder:   []string{"x"},
		WorkloadOrder: []string{"a"},
	}
	// Vectors stay aligned with WorkloadOrder: undefined slots are NaN,
	// never silently dropped.
	if got := s.NormalizedIPC("x"); len(got) != 1 || !math.IsNaN(got[0]) {
		t.Errorf("NormalizedIPC without baseline = %v, want [NaN]", got)
	}
	if got := s.Coverage("x"); len(got) != 1 || !math.IsNaN(got[0]) {
		t.Errorf("Coverage without baseline = %v, want [NaN]", got)
	}
	if s.GeomeanSpeedup("x") != 0 {
		t.Error("GeomeanSpeedup without any usable baseline should be 0")
	}
	if s.StorageKB("x") != 0 {
		t.Error("StorageKB without runs should be 0")
	}
	if err := s.Validate(); err == nil {
		t.Error("incomplete suite validated")
	}
}

// alignedSuite builds a synthetic two-config, three-workload suite used
// by the aligned-vector tests. Baseline IPCs: a=1, b=0 (degenerate),
// c missing from cfg "x" (partial run map).
func alignedSuite() *SuiteResults {
	mk := func(cfg, wl string, ipc float64, misses uint64) RunResult {
		r := RunResult{Config: cfg, Workload: wl}
		r.R.IPC = ipc
		r.R.L1I.Misses = misses
		r.R.L1I.Accesses = misses * 10
		return r
	}
	return &SuiteResults{
		Runs: map[string]map[string]RunResult{
			"no": {
				"a": mk("no", "a", 1.0, 100),
				"b": mk("no", "b", 0.0, 0), // zero-IPC, zero-miss baseline
				"c": mk("no", "c", 2.0, 50),
			},
			"x": {
				"a": mk("x", "a", 1.5, 25),
				"b": mk("x", "b", 1.0, 10),
				// "c" missing: partial run map.
			},
		},
		ConfigOrder:   []string{"no", "x"},
		WorkloadOrder: []string{"a", "b", "c"},
	}
}

func TestAlignedVectors(t *testing.T) {
	s := alignedSuite()
	cases := []struct {
		name string
		got  []float64
		want []float64 // NaN marks an undefined slot
	}{
		{"NormalizedIPC", s.NormalizedIPC("x"), []float64{1.5, math.NaN(), math.NaN()}},
		{"Coverage", s.Coverage("x"), []float64{0.75, math.NaN(), math.NaN()}},
		{"MissRatios", s.MissRatios("x"), []float64{0.1, 0.1, math.NaN()}},
	}
	for _, c := range cases {
		if len(c.got) != len(s.WorkloadOrder) {
			t.Errorf("%s: length %d, want %d (aligned with WorkloadOrder)",
				c.name, len(c.got), len(s.WorkloadOrder))
			continue
		}
		for i, want := range c.want {
			got := c.got[i]
			switch {
			case math.IsNaN(want) && !math.IsNaN(got):
				t.Errorf("%s[%d] (%s) = %v, want NaN", c.name, i, s.WorkloadOrder[i], got)
			case !math.IsNaN(want) && math.Abs(got-want) > 1e-12:
				t.Errorf("%s[%d] (%s) = %v, want %v", c.name, i, s.WorkloadOrder[i], got, want)
			}
		}
	}
}

func TestGeomeanSpeedupSubsetSemantics(t *testing.T) {
	s := alignedSuite()
	// The usable-baseline subset is {a, c} (b's baseline IPC is 0).
	// "x" has no run for c, so its subset would differ from other
	// configurations': the result must be loudly NaN, not a quiet mean
	// over fewer workloads.
	if got := s.GeomeanSpeedup("x"); !math.IsNaN(got) {
		t.Errorf("GeomeanSpeedup over a partial run map = %v, want NaN", got)
	}
	// Baseline vs itself is defined on the full subset and equals 1.
	if got := s.GeomeanSpeedup("no"); math.Abs(got-1) > 1e-12 {
		t.Errorf("GeomeanSpeedup(no) = %v, want 1", got)
	}
	// Completing the run map makes "x" comparable again.
	r := RunResult{Config: "x", Workload: "c"}
	r.R.IPC = 3.0
	s.Runs["x"]["c"] = r
	want := math.Sqrt(1.5 * 1.5) // geomean of {1.5, 3.0/2.0}
	if got := s.GeomeanSpeedup("x"); math.Abs(got-want) > 1e-12 {
		t.Errorf("GeomeanSpeedup(x) = %v, want %v", got, want)
	}
}

func TestStorageKBDeterministic(t *testing.T) {
	s := &SuiteResults{
		Runs:          map[string]map[string]RunResult{"x": {}},
		ConfigOrder:   []string{"x"},
		WorkloadOrder: []string{"a", "b"},
	}
	ra := RunResult{Config: "x", Workload: "a"}
	ra.R.StorageBits = 8 * 1024 * 16 // 16 KB
	rb := RunResult{Config: "x", Workload: "b"}
	rb.R.StorageBits = 8 * 1024 * 32
	s.Runs["x"]["a"] = ra
	s.Runs["x"]["b"] = rb
	// The first workload in WorkloadOrder decides, not map iteration.
	if got := s.StorageKB("x"); got != 16 {
		t.Errorf("StorageKB = %v, want 16 (from WorkloadOrder[0])", got)
	}
	// Validate flags the disagreement between runs of one configuration.
	err := s.Validate()
	if err == nil {
		t.Fatal("Validate accepted runs disagreeing on StorageBits")
	}
	if !strings.Contains(err.Error(), "storage") {
		t.Errorf("Validate error %q does not mention storage", err)
	}
}

func TestFig11RowShape(t *testing.T) {
	// Synthetic suite with the ablation config names present.
	s := &SuiteResults{Runs: map[string]map[string]RunResult{}}
	add := func(cfg string, ipc float64) {
		s.Runs[cfg] = map[string]RunResult{"w": {Config: cfg, Workload: "w"}}
		r := s.Runs[cfg]["w"]
		r.R.IPC = ipc
		s.Runs[cfg]["w"] = r
	}
	add("no", 1.0)
	for _, size := range []string{"2k", "4k", "8k"} {
		for _, v := range []string{"-BB", "-Ent", "-BBEnt", "-BBEntBB", ""} {
			add("entangling-"+size+v, 1.1)
		}
	}
	s.WorkloadOrder = []string{"w"}
	tab := Fig11(s)
	if len(tab.Rows) != 5 {
		t.Fatalf("Fig11 rows = %d, want 5", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != 4 {
			t.Errorf("Fig11 row %v has %d cells", row, len(row))
		}
		if row[1] != "+10.00%" {
			t.Errorf("speedup cell = %q", row[1])
		}
	}
}

func TestPhysicalTableSkipsBaseline(t *testing.T) {
	s := &SuiteResults{
		Runs: map[string]map[string]RunResult{
			"no": {"w": {}}, "p": {"w": {}},
		},
		ConfigOrder:   []string{"no", "p"},
		WorkloadOrder: []string{"w"},
	}
	tab := PhysicalTable(s)
	if len(tab.Rows) != 1 || tab.Rows[0][0] != "p" {
		t.Errorf("PhysicalTable rows: %v", tab.Rows)
	}
}

func TestExtTablesRender(t *testing.T) {
	if len(SplitConfigurations()) != 7 || len(ContextConfigurations()) != 3 ||
		len(RetireConfigurations()) != 3 {
		t.Fatal("extension configuration lists wrong")
	}
	// Smoke the PQ sweep at tiny scale.
	tab, err := ExtPQSweep(context.Background(), 60_000, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Errorf("PQ sweep rows = %d", len(tab.Rows))
	}
}

func TestHeadlineRenders(t *testing.T) {
	specs := workload.CVPSuite(1)[:2]
	cfgs := []Configuration{
		Baseline,
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
		{Name: "ideal", IdealL1I: true},
	}
	s, err := RunSuite(specs, cfgs, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	tab := Headline(s)
	if len(tab.Rows) != 2 { // entangling-2k + ideal
		t.Fatalf("Headline rows = %d: %v", len(tab.Rows), tab.Rows)
	}
	if tab.Rows[0][0] != "entangling-2k" {
		t.Errorf("first row %v", tab.Rows[0])
	}
}

// TestParallelismZeroUsesGOMAXPROCS: Options.Parallelism below 1 runs
// runtime.GOMAXPROCS(0) workers, so at GOMAXPROCS 2 two cells are in
// flight at once. Each cell's hook waits at a barrier for the other; a
// single worker would leave the first cell waiting until the timeout.
func TestParallelismZeroUsesGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var arrived atomic.Int32
	both := make(chan struct{})
	opt := Options{Warmup: 1000, Measure: 1000, CellHook: func(string, string) error {
		if arrived.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
			return nil
		case <-time.After(10 * time.Second):
			return errors.New("no second cell in flight")
		}
	}}
	cfgs := []Configuration{Baseline, {Name: "nextline", Prefetcher: "nextline"}}
	if _, err := RunSuite(workload.CVPSuite(1)[:1], cfgs, opt); err != nil {
		t.Fatal(err)
	}
}
