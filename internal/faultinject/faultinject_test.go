package faultinject

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// collectCellFaults runs the hook over a grid of cells and returns a
// per-cell record of what happened.
func collectCellFaults(in *Injector) map[string]string {
	out := make(map[string]string)
	for c := 0; c < 4; c++ {
		for w := 0; w < 4; w++ {
			cfg, wl := fmt.Sprintf("cfg%d", c), fmt.Sprintf("wl%d", w)
			out[cfg+"/"+wl] = func() (kind string) {
				defer func() {
					if recover() != nil {
						kind = "panic"
					}
				}()
				if err := in.CellHook(cfg, wl); err != nil {
					return "error"
				}
				return "ok"
			}()
		}
	}
	return out
}

// TestInjectionIsDeterministic: which cells fault, and how, is a pure
// function of the plan — two injectors with the same plan agree on
// every site; a different seed picks a different (non-empty,
// non-identical) fault set.
func TestInjectionIsDeterministic(t *testing.T) {
	plan := Plan{Seed: 11, CellPanicProb: 0.3, CellErrorProb: 0.3}
	a := collectCellFaults(New(plan))
	b := collectCellFaults(New(plan))
	for site, kind := range a {
		if b[site] != kind {
			t.Errorf("site %s: %s vs %s across identical plans", site, kind, b[site])
		}
	}
	faults := 0
	for _, kind := range a {
		if kind != "ok" {
			faults++
		}
	}
	if faults == 0 || faults == len(a) {
		t.Fatalf("degenerate fault set: %d/%d sites fault", faults, len(a))
	}

	other := plan
	other.Seed = 12
	c := collectCellFaults(New(other))
	same := true
	for site, kind := range a {
		if c[site] != kind {
			same = false
			break
		}
	}
	if same {
		t.Error("changing the seed changed nothing")
	}
}

func TestSlowCellStalls(t *testing.T) {
	in := New(Plan{Seed: 1, CellSlowProb: 1, SlowDelay: 30 * time.Millisecond})
	start := time.Now()
	if err := in.CellHook("cfg", "wl"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Errorf("slow cell returned after %v, want >= 30ms", d)
	}
	if in.Stats().SlowCells != 1 {
		t.Errorf("SlowCells = %d, want 1", in.Stats().SlowCells)
	}
}

func TestCorruptRecordAlwaysChanges(t *testing.T) {
	in := New(Plan{Seed: 42})
	for _, size := range []int{1, 2, 16, 1024} {
		orig := bytes.Repeat([]byte{0xA5}, size)
		got := in.CorruptRecord(orig)
		if len(got) != size {
			t.Fatalf("size changed: %d -> %d", size, len(got))
		}
		if bytes.Equal(got, orig) {
			t.Errorf("size %d: corruption was a no-op", size)
		}
		if !bytes.Equal(orig, bytes.Repeat([]byte{0xA5}, size)) {
			t.Errorf("size %d: input mutated in place", size)
		}
	}
	if got := in.CorruptRecord(nil); len(got) != 0 {
		t.Errorf("corrupting empty record produced %d bytes", len(got))
	}
	if in.Stats().RecordsCorrupted != 4 {
		t.Errorf("RecordsCorrupted = %d, want 4", in.Stats().RecordsCorrupted)
	}
}

// TestConcurrentInjection: hooks race from many goroutines, a
// fault-prone site faults on every call, and the counts stay exact —
// the injector must be safe under the sweep's worker pool.
func TestConcurrentInjection(t *testing.T) {
	in := New(Plan{Seed: 9, CellErrorProb: 1})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				errs <- in.CellHook("cfg", "wl")
			}
		}()
	}
	wg.Wait()
	close(errs)
	fired := 0
	for err := range errs {
		if err != nil {
			fired++
		}
	}
	if fired != 64 {
		t.Errorf("fault-prone site fired %d of 64 times under concurrency", fired)
	}
	if in.Stats().CellErrors != 64 {
		t.Errorf("CellErrors = %d, want 64", in.Stats().CellErrors)
	}
}

func TestCountsTotal(t *testing.T) {
	c := Counts{CellPanics: 1, CellErrors: 2, SlowCells: 3, RecordsCorrupted: 4}
	if c.Total() != 10 {
		t.Errorf("Total = %d, want 10", c.Total())
	}
}
