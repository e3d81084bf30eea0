package harness

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

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

// cellLog records one sweep's progress events.
type cellLog struct {
	mu  sync.Mutex
	evs []CellEvent
}

func (l *cellLog) observe(ev CellEvent) {
	l.mu.Lock()
	l.evs = append(l.evs, ev)
	l.mu.Unlock()
}

// startedBoth reports whether both sweeps have started the same cell.
func startedBoth(a, b *cellLog) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ea := range a.evs {
		for _, eb := range b.evs {
			if ea.Type == CellStarted && eb.Type == CellStarted &&
				ea.Config == eb.Config && ea.Workload == eb.Workload {
				return true
			}
		}
	}
	return false
}

// tally checks the property a progress consumer counts cells by (the
// job server's SSE stream and cell counts): each of the sweep's cells
// gets exactly one CellRestored, CellFinished or CellFailed, and at
// most one CellStarted, before it. It returns the events counted by
// type and source, as "type" or "type/source".
func (l *cellLog) tally(t *testing.T, cells int) map[string]int {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]int{}
	started := map[[2]string]int{}
	ended := map[[2]string]int{}
	for _, ev := range l.evs {
		key := string(ev.Type)
		if ev.Source != "" {
			key += "/" + ev.Source
		}
		out[key]++
		cell := [2]string{ev.Config, ev.Workload}
		if ended[cell] > 0 {
			t.Errorf("cell %v: %s after its terminal event", cell, ev.Type)
		}
		if ev.Type == CellStarted {
			if started[cell]++; started[cell] > 1 {
				t.Errorf("cell %v started twice", cell)
			}
		} else {
			ended[cell]++
		}
	}
	if len(ended) != cells || out["restored/"+SourceCacheMemory]+out["restored/"+SourceCacheStore]+
		out["finished/"+SourceSimulated]+out["finished/"+SourceShared]+out["failed"] != cells {
		t.Errorf("terminal events %v over %d cells, want one for each of %d cells", out, len(ended), cells)
	}
	return out
}

// TestRunSuiteEventsAccountForEveryCell: however a cell resolves, a
// sweep's terminal events number its cells and no cell starts twice.
func TestRunSuiteEventsAccountForEveryCell(t *testing.T) {
	specs := workload.CVPSuite(1)[:2]
	cfgs := []Configuration{Baseline, {Name: "nextline", Prefetcher: "nextline"}}
	n := len(specs) * len(cfgs)
	opt := Options{Warmup: 20_000, Measure: 10_000, Parallelism: 2}
	sweep := func(r *Resolver, ctx context.Context) *cellLog {
		l := &cellLog{}
		o := opt
		o.Progress = l.observe
		r.RunSuite(ctx, specs, cfgs, o)
		return l
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	cases := []struct {
		name string
		// run runs the case's sweeps and returns their logs.
		run func(t *testing.T) []*cellLog
		// want holds each sweep's tally; nil skips the comparison.
		want []map[string]int
		// wantShared asks for a cell that joined another's flight.
		wantShared bool
	}{
		{
			name: "fresh",
			run: func(t *testing.T) []*cellLog {
				return []*cellLog{sweep(NewResolver(opt), context.Background())}
			},
			want: []map[string]int{{"started": n, "finished/simulated": n}},
		},
		{
			name: "memory tier",
			run: func(t *testing.T) []*cellLog {
				r := NewResolver(opt)
				return []*cellLog{sweep(r, context.Background()), sweep(r, context.Background())}
			},
			want: []map[string]int{
				{"started": n, "finished/simulated": n},
				{"restored/cache-memory": n},
			},
		},
		{
			name: "store tier",
			run: func(t *testing.T) []*cellLog {
				store, err := OpenCheckpointStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				o := opt
				o.Checkpoint = store
				first := sweep(NewResolver(o), context.Background())
				o.Resume = true
				return []*cellLog{first, sweep(NewResolver(o), context.Background())}
			},
			want: []map[string]int{
				{"started": n, "finished/simulated": n},
				{"restored/cache-store": n},
			},
		},
		{
			name: "pre-canceled",
			run: func(t *testing.T) []*cellLog {
				return []*cellLog{sweep(NewResolver(opt), canceled)}
			},
			want: []map[string]int{{"failed": n}},
		},
		{
			name: "hook-failed cell",
			run: func(t *testing.T) []*cellLog {
				o := opt
				o.CellHook = func(config, wl string) error {
					if config == "nextline" && wl == specs[0].Name {
						return errors.New("injected")
					}
					return nil
				}
				return []*cellLog{sweep(NewResolver(o), context.Background())}
			},
			want: []map[string]int{{"started": n, "finished/simulated": n - 1, "failed": 1}},
		},
		{
			// Every run waits in its hook until both sweeps started
			// one cell, so the second of them joins the first's flight.
			name: "shared flights",
			run: func(t *testing.T) []*cellLog {
				release := make(chan struct{})
				o := opt
				o.CellHook = func(string, string) error { <-release; return nil }
				r := NewResolver(o)
				a, b := &cellLog{}, &cellLog{}
				var wg sync.WaitGroup
				for _, l := range []*cellLog{a, b} {
					wg.Add(1)
					go func(l *cellLog) {
						defer wg.Done()
						o := opt
						o.Progress = l.observe
						r.RunSuite(context.Background(), specs, cfgs, o)
					}(l)
				}
				for deadline := time.Now().Add(10 * time.Second); !startedBoth(a, b); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						close(release)
						wg.Wait()
						t.Fatal("the two sweeps never started one cell together")
					}
				}
				close(release)
				wg.Wait()
				return []*cellLog{a, b}
			},
			wantShared: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shared := 0
			for i, l := range tc.run(t) {
				got := l.tally(t, n)
				shared += got["finished/"+SourceShared]
				if tc.want != nil && !maps.Equal(got, tc.want[i]) {
					t.Errorf("sweep %d: events %v, want %v", i, got, tc.want[i])
				}
			}
			if tc.wantShared && shared == 0 {
				t.Error("no cell joined another sweep's flight")
			}
		})
	}
}
