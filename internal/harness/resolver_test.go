package harness

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"entangling/internal/workload"
)

// eventCounter counts a sweep's progress events by type, and the
// CellStarted events by configuration.
type eventCounter struct {
	mu        sync.Mutex
	byType    map[CellEventType]int
	startedBy map[string]int
}

func newEventCounter() *eventCounter {
	return &eventCounter{byType: map[CellEventType]int{}, startedBy: map[string]int{}}
}

func (c *eventCounter) observe(ev CellEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byType[ev.Type]++
	if ev.Type == CellStarted {
		c.startedBy[ev.Config]++
	}
}

// TestResolverSharesCellsAcrossSweeps: one Resolver runs the Figure 6
// lineup, the Figures 12-15 lineup and the §IV-E physical lineup over
// the same specs, in that order, as cmd/paperfigs does. The second
// sweep's cells were all resolved by the first, so it simulates none
// and builds no trace, and its export equals a fresh sweep's. The
// physical "no" shares Baseline's name but not its fingerprint, so
// its cells run, and each sweep keeps its own "no" row.
func TestResolverSharesCellsAcrossSweeps(t *testing.T) {
	specs := workload.CVPSuite(1)
	opt := Options{Warmup: 20_000, Measure: 10_000, Parallelism: 2}
	cache := workload.NewTraceCache()
	shared := opt
	shared.Traces = cache
	r := NewResolver(shared)
	sweep := func(cfgs []Configuration) (*SuiteResults, *eventCounter, uint64) {
		t.Helper()
		ev := newEventCounter()
		o := opt
		o.Progress = ev.observe
		before, _, _ := cache.CacheStats()
		s, err := r.RunSuite(context.Background(), specs, cfgs, o)
		if err != nil {
			t.Fatal(err)
		}
		after, _, resident := cache.CacheStats()
		if resident != 0 {
			t.Errorf("%d traces left resident after the sweep", resident)
		}
		return s, ev, after - before
	}
	fresh := func(cfgs []Configuration) []byte {
		t.Helper()
		s, err := RunSuiteCtx(context.Background(), specs, cfgs, opt)
		if err != nil {
			t.Fatal(err)
		}
		return suiteMetricsBytes(t, s)
	}

	main, ev, builds := sweep(StandardConfigurations())
	if n := len(specs) * len(StandardConfigurations()); ev.byType[CellStarted] != n || builds != uint64(len(specs)) {
		t.Fatalf("Figure 6 sweep: %d started, %d builds; want %d and %d", ev.byType[CellStarted], builds, n, len(specs))
	}

	stats, ev, builds := sweep(StatsConfigurations())
	n := len(specs) * len(StatsConfigurations())
	if ev.byType[CellStarted] != 0 || ev.byType[CellRestored] != n || builds != 0 || stats.Restored != n {
		t.Errorf("Figures 12-15 sweep: %v, %d builds, Restored %d; want %d restored, none started, 0 builds",
			ev.byType, builds, stats.Restored, n)
	}
	if !bytes.Equal(suiteMetricsBytes(t, stats), fresh(StatsConfigurations())) {
		t.Error("the reused Figures 12-15 sweep exports other bytes than a fresh one")
	}

	phys, ev, _ := sweep(PhysicalConfigurations())
	if ev.startedBy["no"] != len(specs) || ev.byType[CellStarted] != len(specs)*len(PhysicalConfigurations()) {
		t.Errorf("physical sweep started %v; want every cell, the %d physical no cells included", ev.startedBy, len(specs))
	}
	if !bytes.Equal(suiteMetricsBytes(t, phys), fresh(PhysicalConfigurations())) {
		t.Error("the physical sweep exports other bytes than a fresh one")
	}
	for _, sp := range specs {
		if phys.Runs["no"][sp.Name].R == main.Runs["no"][sp.Name].R {
			t.Errorf("%s: the physical and the virtual no rows hold one result", sp.Name)
		}
	}
}

// TestUnreadableRecordFailsItsCell: a checkpoint record that cannot be
// read (here a directory sitting at <fp>.ckpt) fails exactly its cell,
// without running it, with a *CellError wrapping the read error; the
// other cells of the resumed sweep complete.
func TestUnreadableRecordFailsItsCell(t *testing.T) {
	specs, cfgs, opt := resumeSuite()
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bad, badSpec := cfgs[1], specs[0]
	fp := CellFingerprint(bad, badSpec, opt.Warmup, opt.Measure)
	if err := os.Mkdir(filepath.Join(store.Dir(), fp+".ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	ran := map[string]int{}
	opt.Checkpoint, opt.Resume = store, true
	opt.CellHook = func(config, wl string) error {
		mu.Lock()
		ran[config+"/"+wl]++
		mu.Unlock()
		return nil
	}
	s, err := RunSuite(specs, cfgs, opt)
	if err == nil {
		t.Fatal("a sweep with an unreadable record reported no failure")
	}
	if len(s.Failed) != 1 {
		t.Fatalf("%d failed cells, want 1: %v", len(s.Failed), s.Failed)
	}
	ce := s.Failed[0]
	var readErr *fs.PathError
	if ce.Config != bad.Name || ce.Workload != badSpec.Name ||
		!strings.Contains(ce.Error(), "loading checkpoint") || !errors.As(ce, &readErr) {
		t.Errorf("failed cell %v, want %s/%s failing on its record's read", ce, bad.Name, badSpec.Name)
	}
	if n := ran[bad.Name+"/"+badSpec.Name]; n != 0 {
		t.Errorf("the cell with the unreadable record ran %d times, want 0", n)
	}
	if got, want := len(ran), len(specs)*len(cfgs)-1; got != want {
		t.Errorf("%d cells ran, want every other cell (%d)", got, want)
	}
	for _, c := range cfgs {
		for _, sp := range specs {
			if _, ok := s.Runs[c.Name][sp.Name]; ok == (c.Name == bad.Name && sp.Name == badSpec.Name) {
				t.Errorf("cell %s/%s: has result %v", c.Name, sp.Name, ok)
			}
		}
	}
}
