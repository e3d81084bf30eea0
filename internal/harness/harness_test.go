package harness

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"entangling/internal/energy"
	"entangling/internal/workload"
)

func tinyOptions() Options {
	return Options{Warmup: 150_000, Measure: 100_000, Parallelism: 2}
}

func tinySuite(t *testing.T) ([]workload.Spec, []Configuration, *SuiteResults) {
	t.Helper()
	specs := workload.CVPSuite(1)
	cfgs := []Configuration{
		Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
		{Name: "ideal", IdealL1I: true},
	}
	s, err := RunSuite(specs, cfgs, tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return specs, cfgs, s
}

func TestRunSuiteComplete(t *testing.T) {
	specs, cfgs, s := tinySuite(t)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.ConfigOrder) != len(cfgs) || len(s.WorkloadOrder) != len(specs) {
		t.Fatal("order bookkeeping wrong")
	}

	// Metric sanity.
	for _, cfg := range []string{"nextline", "entangling-2k", "ideal"} {
		sp := s.GeomeanSpeedup(cfg)
		if sp <= 0.5 || sp > 3 {
			t.Errorf("%s geomean speedup %.3f implausible", cfg, sp)
		}
	}
	if s.GeomeanSpeedup("ideal") <= s.GeomeanSpeedup("nextline") {
		t.Error("ideal should beat nextline")
	}
	if s.GeomeanSpeedup("entangling-2k") <= 1.0 {
		t.Error("entangling-2k should beat baseline")
	}
	if n := s.NormalizedIPC("no"); len(n) > 0 {
		for _, v := range n {
			if v != 1 {
				t.Errorf("baseline normalized IPC %v != 1", v)
			}
		}
	}
	// Coverage of ideal is 1 by construction (NaN marks workloads whose
	// baseline had no misses to cover).
	for _, c := range s.Coverage("ideal") {
		if !math.IsNaN(c) && c != 1 {
			t.Errorf("ideal coverage %v != 1", c)
		}
	}
	// Entangling stats should be attached.
	found := false
	for _, r := range s.Runs["entangling-2k"] {
		if r.Ent != nil {
			found = true
		}
	}
	if !found {
		t.Error("Entangling stats not captured")
	}
	if s.StorageKB("entangling-2k") < 15 || s.StorageKB("entangling-2k") > 25 {
		t.Errorf("entangling-2k storage %.2fKB", s.StorageKB("entangling-2k"))
	}
	if len(s.Categories()) != 4 {
		t.Errorf("categories: %v", s.Categories())
	}
}

func TestRunUnknownPrefetcher(t *testing.T) {
	specs := workload.CVPSuite(1)
	_, err := RunCell(context.Background(), Configuration{Name: "x", Prefetcher: "bogus"}, specs[0],
		Options{Warmup: 1000, Measure: 1000})
	if err == nil {
		t.Fatal("unknown prefetcher accepted")
	}
}

func TestFiguresRender(t *testing.T) {
	_, _, s := tinySuite(t)

	f6 := Fig06(s)
	if !strings.Contains(f6.String(), "entangling-2k") {
		t.Error("Fig06 missing config row")
	}
	for _, tab := range []*Table{Fig07(s, 5), Fig08(s, 5), Fig09(s, 5), Fig10(s, 5)} {
		if len(tab.Rows) != 5 {
			t.Errorf("%s: %d rows, want 5", tab.Title, len(tab.Rows))
		}
	}
	t4 := Table04(s, energy.Default22nm())
	if len(t4.Rows) != len(s.ConfigOrder) {
		t.Errorf("Table04 rows = %d", len(t4.Rows))
	}
	// The baseline's normalized energy must be exactly 1.
	for _, row := range t4.Rows {
		if row[0] == "no" && row[5] != "1.0000" {
			t.Errorf("baseline normalized energy = %s", row[5])
		}
	}
	f12 := Fig12(s, "entangling-2k")
	if len(f12.Rows) == 0 {
		t.Error("Fig12 empty")
	}
	for _, tab := range []*Table{
		Fig13(s, []string{"entangling-2k"}),
		Fig14(s, []string{"entangling-2k"}),
		Fig15(s, []string{"entangling-2k"}),
	} {
		if len(tab.Rows) == 0 {
			t.Errorf("%s empty", tab.Title)
		}
	}
	f16 := Fig16(s)
	if len(f16.Rows) != len(s.ConfigOrder)-1 {
		t.Errorf("Fig16 rows = %d", len(f16.Rows))
	}
}

func TestFig01And02(t *testing.T) {
	specs := workload.CVPSuite(1)[3:4] // one srv workload for speed
	opt := tinyOptions()
	f1, err := Fig01(context.Background(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(f1.Rows) != 2 { // workload + ALL
		t.Fatalf("Fig01 rows = %d", len(f1.Rows))
	}
	// The cumulative fractions must be non-decreasing across distances.
	row := f1.Rows[1]
	var prev float64
	for i := 1; i <= 10; i++ {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[i], "%"), 64)
		if err != nil {
			t.Fatalf("bad cell %q: %v", row[i], err)
		}
		if v+1e-9 < prev {
			t.Errorf("timely fraction decreased at d=%d: %v < %v", i, v, prev)
		}
		prev = v
	}

	f2t, err := Fig02(context.Background(), specs, Options{Warmup: 100_000, Measure: 80_000})
	if err != nil {
		t.Fatal(err)
	}
	if len(f2t.Rows) != 10 {
		t.Fatalf("Fig02 rows = %d", len(f2t.Rows))
	}
}

// TestFiguresStopOnCanceledContext checks that the figures running
// their own measurements (Figures 1 and 2, the PQ study) honour a
// canceled context: each returns ErrCellCanceled before its first run.
// The windows are far too long to simulate, so a figure that ran
// anyway fails by timing out.
func TestFiguresStopOnCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	specs := workload.CVPSuite(1)[3:4]
	const warmup, measure = 1 << 40, 1 << 40
	opt := Options{Warmup: warmup, Measure: measure}
	for name, run := range map[string]func() error{
		"Fig01":      func() error { _, err := Fig01(ctx, specs, opt); return err },
		"Fig02":      func() error { _, err := Fig02(ctx, specs, opt); return err },
		"ExtPQSweep": func() error { _, err := ExtPQSweep(ctx, warmup, measure); return err },
	} {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrCellCanceled) {
				t.Errorf("%s on a canceled context: %v, want ErrCellCanceled", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s kept simulating on a canceled context", name)
		}
	}
}
