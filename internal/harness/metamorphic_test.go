package harness

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"entangling/internal/cache"
	"entangling/internal/oracle"
	"entangling/internal/prefetch"
	"entangling/internal/workload"
)

// The metamorphic battery holds the sweep to relations that must be
// true of any correct execution layer, independent of what the
// simulated numbers are: permuting the sweep's inputs or its worker
// count must not change any cell, and an independent oracle's counters
// must agree with the cache's.

// metamorphicConfigurations is every baseline prefetcher plus the
// paper's, the cache-growth variants and ideal — the full Figure 6
// lineup, so an ordering bug in any prefetcher's state shows up here.
func metamorphicConfigurations() []Configuration {
	return StandardConfigurations()
}

func metamorphicOptions() Options {
	return Options{Warmup: 60_000, Measure: 40_000, Parallelism: 2}
}

// reverse returns a reversed copy of s.
func reverse[T any](s []T) []T {
	out := make([]T, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}

// TestSuitePermutationInvariance: per-cell results are a function of
// (configuration, workload, windows) alone — reordering the spec and
// configuration lists, or changing the worker count, must reproduce
// every cell exactly. Table-driven over the full configuration lineup.
func TestSuitePermutationInvariance(t *testing.T) {
	specs := workload.CVPSuite(1)
	cfgs := metamorphicConfigurations()
	opt := metamorphicOptions()

	ref, err := RunSuite(specs, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}

	variants := []struct {
		name  string
		specs []workload.Spec
		cfgs  []Configuration
		par   int
	}{
		{"reversed-workloads", reverse(specs), cfgs, opt.Parallelism},
		{"reversed-configs", specs, reverse(cfgs), opt.Parallelism},
		{"reversed-both", reverse(specs), reverse(cfgs), opt.Parallelism},
		{"serial", specs, cfgs, 1},
		{"wide", specs, cfgs, 8},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			o := opt
			o.Parallelism = v.par
			got, err := RunSuite(v.specs, v.cfgs, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cfgs {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					for _, s := range specs {
						if !reflect.DeepEqual(got.Runs[c.Name][s.Name], ref.Runs[c.Name][s.Name]) {
							t.Errorf("cell %s/%s changed under %s", c.Name, s.Name, v.name)
						}
					}
				})
			}
		})
	}
}

// countingOracle wraps the lookahead oracle with an independent count
// of the demanded fills it classified, for cross-checking against both
// the oracle's own histogram and the cache's statistics.
type countingOracle struct {
	*oracle.LookaheadOracle
	demandedFills uint64
}

func (c *countingOracle) OnFill(ev cache.FillEvent) {
	if ev.Demanded {
		c.demandedFills++
	}
	c.LookaheadOracle.OnFill(ev)
}

// crossCheck is a test-only prefetcher: it runs a configuration's own
// prefetcher and forwards every hook and feedback event to a counting
// oracle as well, so the oracle observes exactly the run the cache
// does.
type crossCheck struct {
	prefetch.Prefetcher
	co *countingOracle
}

func (c *crossCheck) OnAccess(e cache.AccessEvent) { c.Prefetcher.OnAccess(e); c.co.OnAccess(e) }
func (c *crossCheck) OnFill(e cache.FillEvent)     { c.Prefetcher.OnFill(e); c.co.OnFill(e) }
func (c *crossCheck) OnEvict(e cache.EvictEvent)   { c.Prefetcher.OnEvict(e); c.co.OnEvict(e) }
func (c *crossCheck) OnBranch(e prefetch.BranchEvent) {
	c.Prefetcher.OnBranch(e)
	c.co.OnBranch(e)
}

func (c *crossCheck) OnPrefetchFeedback(f prefetch.Feedback) {
	if s, ok := c.Prefetcher.(cache.FeedbackSink); ok {
		s.OnPrefetchFeedback(f)
	}
	c.co.OnPrefetchFeedback(f)
}

var (
	crossCheckMu sync.Mutex
	// crossCheckLast holds, per registered name, the counting oracle of
	// the last machine built with it.
	crossCheckLast = map[string]*countingOracle{}
)

// crossCheckConfiguration returns cfg with its prefetcher wrapped in a
// crossCheck, registered (once per process) under a test-only name,
// and a func returning the counting oracle of the last machine built
// for it. Cells of one configuration must run one at a time.
func crossCheckConfiguration(t *testing.T, cfg Configuration) (Configuration, func() *countingOracle) {
	t.Helper()
	name := "xcheck-" + cfg.Name
	inner := cfg.Prefetcher
	if inner == "" {
		inner = "no"
	}
	f, err := prefetch.Lookup(inner)
	if err != nil {
		t.Fatal(err)
	}
	crossCheckMu.Lock()
	defer crossCheckMu.Unlock()
	if _, err := prefetch.Lookup(name); err != nil {
		prefetch.Register(name, func(is prefetch.Issuer) prefetch.Prefetcher {
			co := &countingOracle{LookaheadOracle: oracle.New()}
			crossCheckMu.Lock()
			crossCheckLast[name] = co
			crossCheckMu.Unlock()
			return &crossCheck{Prefetcher: f(is), co: co}
		})
	}
	cfg.Prefetcher = name
	return cfg, func() *countingOracle {
		crossCheckMu.Lock()
		defer crossCheckMu.Unlock()
		return crossCheckLast[name]
	}
}

// TestOracleCrossChecksCacheStats: the oracle observes the same run as
// the cache, so their books must balance per cell — every demanded
// fill classified exactly once, the timely-fraction curve a cumulative
// distribution, and the cache's own lifecycle counters within their
// structural bounds. Table-driven over the baseline prefetchers.
func TestOracleCrossChecksCacheStats(t *testing.T) {
	specs := workload.CVPSuite(1)
	opt := metamorphicOptions()
	for _, cfg := range metamorphicConfigurations() {
		if cfg.IdealL1I {
			continue // an always-hit L1I has no fills to classify
		}
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			t.Parallel()
			cfg, last := crossCheckConfiguration(t, cfg)
			for _, spec := range specs {
				r, err := RunCell(context.Background(), cfg, spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				co := last()

				// Every demanded fill the oracle saw landed in exactly one
				// distance bucket.
				if got := co.Distances.Total(); got != co.demandedFills {
					t.Errorf("%s/%s: oracle classified %d fills, saw %d demanded",
						cfg.Name, spec.Name, got, co.demandedFills)
				}
				// The L1I reports misses over the whole run (warmup +
				// measure); each demand miss becomes one demanded fill.
				if co.demandedFills == 0 {
					t.Errorf("%s/%s: oracle saw no demanded fills", cfg.Name, spec.Name)
				}

				// The timely fraction Fig01 reads is a CDF over distances:
				// within [0,1] and non-decreasing.
				prev := 0.0
				for d := 1; d <= 10; d++ {
					f := co.Distances.CumulativeFraction(d)
					if f < prev || f < 0 || f > 1 {
						t.Fatalf("%s/%s: timely fraction not a CDF at distance %d: %v after %v",
							cfg.Name, spec.Name, d, f, prev)
					}
					prev = f
				}

				// Prefetch hit-rate bounds. Counters are measure-window
				// deltas, so only same-event bounds hold: a timely
				// prefetch hit is itself a demand hit, and a late
				// prefetch merges into a demand miss, in the same cycle
				// each is counted.
				l1i := r.R.L1I
				if l1i.TimelyPrefetchHits > l1i.Hits {
					t.Errorf("%s/%s: timely prefetch hits %d exceed demand hits %d",
						cfg.Name, spec.Name, l1i.TimelyPrefetchHits, l1i.Hits)
				}
				if l1i.LatePrefetches > l1i.Misses {
					t.Errorf("%s/%s: late prefetches %d exceed demand misses %d",
						cfg.Name, spec.Name, l1i.LatePrefetches, l1i.Misses)
				}
				if lc := r.R.Lifecycle; lc.EarlyEvicted > lc.EvictedUnused {
					t.Errorf("%s/%s: early-evicted %d exceeds evicted-unused %d",
						cfg.Name, spec.Name, lc.EarlyEvicted, lc.EvictedUnused)
				}
				if r.R.L1I.Hits > r.R.L1I.Accesses {
					t.Errorf("%s/%s: hits %d exceed accesses %d",
						cfg.Name, spec.Name, r.R.L1I.Hits, r.R.L1I.Accesses)
				}
			}
		})
	}
}

// TestCanceledSuiteIsDistinguishable is the satellite fix's test: a
// sweep abandoned by context cancellation reports ErrCellCanceled on
// its unfinished cells — typed, and distinct from genuine failures.
func TestCanceledSuiteIsDistinguishable(t *testing.T) {
	specs := workload.CVPSuite(1)
	cfgs := []Configuration{Baseline, {Name: "entangling-2k", Prefetcher: "entangling-2k"}}
	opt := metamorphicOptions()

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before any cell starts
	s, err := RunSuiteCtx(ctx, specs, cfgs, opt)
	if err == nil {
		t.Fatal("canceled sweep returned no error")
	}
	if !errors.Is(err, ErrCellCanceled) {
		t.Fatalf("canceled sweep's error is not ErrCellCanceled: %v", err)
	}
	if len(s.Failed) != len(specs)*len(cfgs) {
		t.Errorf("%d cells failed, want all %d", len(s.Failed), len(specs)*len(cfgs))
	}
	for _, ce := range s.Failed {
		if !ce.Canceled() {
			t.Errorf("cell %s/%s not marked canceled: %v", ce.Config, ce.Workload, ce.Err)
		}
	}

	// The contrast case: a genuinely failing cell must NOT look
	// canceled.
	bad := []Configuration{{Name: "bogus", Prefetcher: "no-such-prefetcher"}}
	s2, err2 := RunSuite(specs, bad, opt)
	if err2 == nil {
		t.Fatal("bogus prefetcher ran")
	}
	if errors.Is(err2, ErrCellCanceled) {
		t.Error("genuine failure misreported as cancellation")
	}
	for _, ce := range s2.Failed {
		if ce.Canceled() {
			t.Errorf("failed cell %s/%s misreported as canceled", ce.Config, ce.Workload)
		}
	}
}

// TestMidSweepCancellation: canceling while cells are in flight leaves
// a partial sweep whose completed cells are intact and whose abandoned
// cells are all typed as canceled — no cell is silently dropped.
func TestMidSweepCancellation(t *testing.T) {
	specs := workload.CVPSuite(1)
	cfgs := []Configuration{Baseline, {Name: "nextline", Prefetcher: "nextline"}}
	opt := metamorphicOptions()
	opt.Parallelism = 2

	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	opt.CellHook = func(config, wl string) error {
		once.Do(func() { close(started) })
		return nil
	}
	go func() {
		<-started
		cancel()
	}()
	s, err := RunSuiteCtx(ctx, specs, cfgs, opt)
	if err == nil {
		// The sweep can win the race and finish; that is not a failure
		// of the cancellation contract, just an uninteresting run.
		t.Skip("sweep completed before cancellation landed")
	}
	if !errors.Is(err, ErrCellCanceled) {
		t.Fatalf("mid-sweep cancellation yielded a non-canceled error: %v", err)
	}
	completed := 0
	for _, c := range cfgs {
		for _, sp := range specs {
			if _, ok := s.Runs[c.Name][sp.Name]; ok {
				completed++
			}
		}
	}
	if completed+len(s.Failed) != len(specs)*len(cfgs) {
		t.Errorf("cells unaccounted for: %d completed + %d failed != %d",
			completed, len(s.Failed), len(specs)*len(cfgs))
	}
}
