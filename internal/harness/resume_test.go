package harness

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"entangling/internal/faultinject"
	"entangling/internal/workload"
)

// resumeSuite is the sweep the differential tests run: small enough to
// iterate seeds x parallelism, wide enough to exercise the baseline,
// a simple prefetcher and the paper's.
func resumeSuite() ([]workload.Spec, []Configuration, Options) {
	specs := workload.CVPSuite(1)
	cfgs := []Configuration{
		Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
	}
	opt := Options{Warmup: 60_000, Measure: 40_000, Parallelism: 2}
	return specs, cfgs, opt
}

// suiteMetricsBytes renders the sweep exactly as -metrics-out does; the
// differential claim is byte equality of this export.
func suiteMetricsBytes(t *testing.T, s *SuiteResults) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, s.Metrics()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeDifferential is the tentpole differential test: a sweep
// interrupted mid-flight by injected faults and then resumed from its
// checkpoint store must reproduce the uninterrupted sweep's metrics
// JSON byte-for-byte — across fault seeds and parallelism levels.
func TestResumeDifferential(t *testing.T) {
	specs, cfgs, base := resumeSuite()

	clean, err := RunSuite(specs, cfgs, base)
	if err != nil {
		t.Fatal(err)
	}
	want := suiteMetricsBytes(t, clean)

	for _, seed := range []uint64{1, 2} {
		for _, par := range []int{1, 4} {
			t.Run(fmt.Sprintf("seed=%d/par=%d", seed, par), func(t *testing.T) {
				store, err := OpenCheckpointStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}

				// Interrupted run: injected faults kill a
				// deterministic, seed-dependent subset of cells; the
				// survivors land in the checkpoint store.
				inj := faultinject.New(faultinject.Plan{
					Seed:          seed,
					CellPanicProb: 0.25,
					CellErrorProb: 0.25,
				})
				opt := base
				opt.Parallelism = par
				opt.Checkpoint = store
				opt.CellHook = inj.CellHook
				partial, err := RunSuite(specs, cfgs, opt)
				if err == nil {
					t.Fatalf("seed %d injected no faults; differential run degenerate", seed)
				}
				if inj.Stats().Total() == 0 {
					t.Fatal("injector never fired")
				}
				if len(partial.Failed) == 0 {
					t.Fatal("error return but no failed cells recorded")
				}
				total := len(specs) * len(cfgs)
				if len(partial.Failed) == total {
					t.Fatalf("every cell failed; resume would just be a clean run")
				}
				saved, err := store.Count()
				if err != nil {
					t.Fatal(err)
				}
				if saved != total-len(partial.Failed) {
					t.Errorf("store holds %d records, want %d completed cells", saved, total-len(partial.Failed))
				}

				// Resume: no faults, same store. Only the missing cells
				// may run.
				opt = base
				opt.Parallelism = par
				opt.Checkpoint = store
				opt.Resume = true
				resumed, err := RunSuite(specs, cfgs, opt)
				if err != nil {
					t.Fatalf("resumed sweep failed: %v", err)
				}
				if resumed.Restored != saved {
					t.Errorf("Restored = %d, want %d", resumed.Restored, saved)
				}
				got := suiteMetricsBytes(t, resumed)
				if !bytes.Equal(got, want) {
					t.Errorf("resumed metrics differ from uninterrupted run (seed %d, par %d):\nresumed: %d bytes\nclean:   %d bytes",
						seed, par, len(got), len(want))
				}
			})
		}
	}
}

// TestResumeQuarantinesCorruptCell: corrupting a checkpointed record
// on disk must not poison the resumed sweep — the record is
// quarantined, its cell re-runs, and the final export still matches
// the uninterrupted run byte-for-byte.
func TestResumeQuarantinesCorruptCell(t *testing.T) {
	specs, cfgs, opt := resumeSuite()

	clean, err := RunSuite(specs, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	want := suiteMetricsBytes(t, clean)

	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	full := opt
	full.Checkpoint = store
	if _, err := RunSuite(specs, cfgs, full); err != nil {
		t.Fatal(err)
	}

	// Corrupt one record in place, deterministically.
	matches, err := filepath.Glob(filepath.Join(store.Dir(), "*.ckpt"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no checkpoint records: %v", err)
	}
	victim := matches[0]
	b, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(faultinject.Plan{Seed: 99})
	if err := os.WriteFile(victim, inj.CorruptRecord(b), 0o644); err != nil {
		t.Fatal(err)
	}

	resume := opt
	resume.Checkpoint = store
	resume.Resume = true
	resumed, err := RunSuite(specs, cfgs, resume)
	if err != nil {
		t.Fatalf("resume over corrupt record failed: %v", err)
	}
	if store.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", store.Quarantined())
	}
	total := len(specs) * len(cfgs)
	if resumed.Restored != total-1 {
		t.Errorf("Restored = %d, want %d (corrupt cell must re-run)", resumed.Restored, total-1)
	}
	if got := suiteMetricsBytes(t, resumed); !bytes.Equal(got, want) {
		t.Error("resumed metrics differ from uninterrupted run after quarantine")
	}
	// The re-run overwrote the quarantined cell with a fresh record.
	if _, err := os.Stat(victim); err != nil {
		t.Errorf("re-run cell not re-checkpointed: %v", err)
	}
}

// TestResumeIgnoresForeignWindows: records checkpointed under other
// run windows must not resume into a sweep with different windows —
// the fingerprint keys warmup/measure, so the cells simply re-run.
func TestResumeIgnoresForeignWindows(t *testing.T) {
	specs, cfgs, opt := resumeSuite()
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	short := opt
	short.Warmup, short.Measure = 20_000, 10_000
	short.Checkpoint = store
	if _, err := RunSuite(specs, cfgs, short); err != nil {
		t.Fatal(err)
	}

	long := opt
	long.Checkpoint = store
	long.Resume = true
	s, err := RunSuite(specs, cfgs, long)
	if err != nil {
		t.Fatal(err)
	}
	if s.Restored != 0 {
		t.Errorf("Restored = %d records from mismatched windows, want 0", s.Restored)
	}
	for _, c := range cfgs {
		for _, sp := range specs {
			if s.Runs[c.Name][sp.Name].R.Instructions != long.Measure {
				t.Fatalf("cell %s/%s measured %d instructions, want %d",
					c.Name, sp.Name, s.Runs[c.Name][sp.Name].R.Instructions, long.Measure)
			}
		}
	}
}

// TestFailedCellRunsOnce: under the default options a failing cell
// runs exactly once and degrades to its *CellError at once — no
// re-run, no backoff sleep.
func TestFailedCellRunsOnce(t *testing.T) {
	specs := workload.CVPSuite(1)[:2]
	cfgs := []Configuration{Baseline, {Name: "nextline", Prefetcher: "nextline"}}
	opt := DefaultOptions()
	opt.Warmup, opt.Measure = 2_000, 2_000
	var mu sync.Mutex
	calls := make(map[string]int)
	var failedFor []time.Duration
	opt.CellHook = func(config, wl string) error {
		mu.Lock()
		calls[config+"/"+wl]++
		mu.Unlock()
		return errors.New("hook always fails")
	}
	opt.Progress = func(ev CellEvent) {
		if ev.Type == CellFailed {
			mu.Lock()
			failedFor = append(failedFor, ev.Duration)
			mu.Unlock()
		}
	}
	s, err := RunSuite(specs, cfgs, opt)
	if err == nil {
		t.Fatal("expected every cell to fail")
	}
	if len(s.Failed) != len(specs)*len(cfgs) {
		t.Fatalf("%d failed cells, want %d", len(s.Failed), len(specs)*len(cfgs))
	}
	for _, c := range cfgs {
		for _, sp := range specs {
			if n := calls[c.Name+"/"+sp.Name]; n != 1 {
				t.Errorf("cell %s/%s ran %d times, want 1", c.Name, sp.Name, n)
			}
		}
	}
	// The hook fails in microseconds; a cell that took 100 ms slept.
	for _, d := range failedFor {
		if d >= 100*time.Millisecond {
			t.Errorf("failed cell took %v: the sweep slept before giving up", d)
		}
	}
}

// TestCellFaultsDegradeToNamedErrors: injected faults degrade to
// named cell errors carrying ErrCellPanic where the injector panicked,
// and the aggregate error format stays stable.
func TestCellFaultsDegradeToNamedErrors(t *testing.T) {
	specs, cfgs, opt := resumeSuite()
	inj := faultinject.New(faultinject.Plan{Seed: 3, CellPanicProb: 0.3, CellErrorProb: 0.3})
	opt.CellHook = inj.CellHook
	s, err := RunSuite(specs, cfgs, opt)
	if err == nil {
		t.Fatal("expected failures")
	}
	c := inj.Stats()
	if c.CellPanics == 0 || c.CellErrors == 0 {
		t.Fatalf("seed 3 should inject both kinds, got %+v", c)
	}
	var panics int
	for _, ce := range s.Failed {
		if ce.Config == "" || ce.Workload == "" {
			t.Errorf("cell error without a cell name: %v", ce)
		}
		if ce.Canceled() {
			t.Errorf("fault misreported as cancellation: %v", ce)
		}
		if errors.Is(ce, ErrCellPanic) {
			panics++
		}
	}
	if panics != c.CellPanics {
		t.Errorf("%d cell errors wrap ErrCellPanic, injector panicked %d times", panics, c.CellPanics)
	}
	wantMsg := fmt.Sprintf("%d of %d runs failed", len(s.Failed), len(specs)*len(cfgs))
	if !bytes.Contains([]byte(err.Error()), []byte(wantMsg)) {
		t.Errorf("aggregate error %q missing %q", err, wantMsg)
	}
}

// TestAcquireFaultFailsTraceCells: a trace whose opener fails fails
// exactly the cells of that trace, each cell error wraps the opener's
// error, and the cache's reservations still drain to an empty cache.
func TestAcquireFaultFailsTraceCells(t *testing.T) {
	specs, cfgs, opt := resumeSuite()
	openErrs := make(map[string]error)
	for _, name := range []string{"trace:offline-a", "trace:offline-b"} {
		openErr := fmt.Errorf("storage offline for %s", name)
		openErrs[name] = openErr
		specs = append(specs, workload.TraceSpec(name, name, func() (io.ReadCloser, error) {
			return nil, openErr
		}))
	}

	cache := workload.NewTraceCache()
	opt.Traces = cache
	s, err := RunSuite(specs, cfgs, opt)
	if err == nil {
		t.Fatal("expected trace open failures")
	}
	if want := len(openErrs) * len(cfgs); len(s.Failed) != want {
		t.Fatalf("%d cells failed, want %d", len(s.Failed), want)
	}
	for _, ce := range s.Failed {
		if openErr, ok := openErrs[ce.Workload]; !ok || !errors.Is(ce, openErr) {
			t.Errorf("cell error does not wrap its trace's open error: %v", ce)
		}
	}
	for _, c := range cfgs {
		for _, sp := range specs {
			_, failing := openErrs[sp.Name]
			if _, ok := s.Runs[c.Name][sp.Name]; ok == failing {
				t.Errorf("cell %s/%s: has result %v, opener fails %v", c.Name, sp.Name, ok, failing)
			}
		}
	}
	if _, _, resident := cache.CacheStats(); resident != 0 {
		t.Errorf("%d traces leaked in the cache", resident)
	}
}

// TestSweepBuildsEachTraceOnce: a sweep materializes each workload's
// trace exactly once at every parallelism, also when resuming with some
// cells restored, and leaves no trace resident when it returns.
func TestSweepBuildsEachTraceOnce(t *testing.T) {
	specs, cfgs, opt := resumeSuite()
	check := func(name string, opt Options) *SuiteResults {
		t.Helper()
		cache := workload.NewTraceCache()
		opt.Traces = cache
		s, err := RunSuite(specs, cfgs, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if builds, _, resident := cache.CacheStats(); builds != uint64(len(specs)) || resident != 0 {
			t.Errorf("%s: builds=%d resident=%d, want %d and 0", name, builds, resident, len(specs))
		}
		return s
	}
	for _, par := range []int{1, 2, 4} {
		o := opt
		o.Parallelism = par
		check(fmt.Sprintf("parallelism %d", par), o)
	}

	// Checkpoint the baseline of every workload, then resume the full
	// sweep: every workload still has cells to run, so every trace is
	// built once more.
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt.Checkpoint = store
	if _, err := RunSuite(specs, cfgs[:1], opt); err != nil {
		t.Fatal(err)
	}
	opt.Resume = true
	if s := check("resumed", opt); s.Restored != len(specs) {
		t.Errorf("%d cells restored, want %d", s.Restored, len(specs))
	}
}
