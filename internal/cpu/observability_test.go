package cpu

import (
	"testing"

	"entangling/internal/prefetch"
	"entangling/internal/workload"
)

// TestLifecycleMatchesCacheCounters cross-checks the lifecycle tracker
// against the L1I's own prefetch counters over a full run: both observe
// the same event stream, so the overlapping counts must agree exactly.
func TestLifecycleMatchesCacheCounters(t *testing.T) {
	r := run(t, workload.Srv, 7, 300_000, func(c *Config) {
		c.Prefetcher = func(i prefetch.Issuer) prefetch.Prefetcher { return prefetch.NewDJolt(i) }
	})
	lc := r.Lifecycle
	if lc.Timely != r.L1I.TimelyPrefetchHits {
		t.Errorf("lifecycle timely %d != L1I %d", lc.Timely, r.L1I.TimelyPrefetchHits)
	}
	if lc.Late != r.L1I.LatePrefetches {
		t.Errorf("lifecycle late %d != L1I %d", lc.Late, r.L1I.LatePrefetches)
	}
	if lc.EvictedUnused != r.L1I.WrongPrefetches {
		t.Errorf("lifecycle evicted-unused %d != L1I wrong %d", lc.EvictedUnused, r.L1I.WrongPrefetches)
	}
	if lc.Timely == 0 {
		t.Error("srv + djolt produced no timely prefetches")
	}
	if lc.Late > 0 && lc.LateCyclesSaved == 0 {
		t.Error("late prefetches recorded but no cycles saved")
	}
	if lc.EarlyEvicted > lc.EvictedUnused {
		t.Errorf("early-evicted %d exceeds evicted-unused %d in a full run",
			lc.EarlyEvicted, lc.EvictedUnused)
	}
}

// TestStallAttributionComplete asserts the defining invariant of the
// breakdown: Total() is the sum of the buckets (by construction), and a
// workload with real misses attributes nonzero cycles to the front-end.
func TestStallAttributionComplete(t *testing.T) {
	r := run(t, workload.Srv, 8, 300_000, nil)
	st := r.Stalls
	sum := st.L1IMiss + st.BTBMiss + st.Mispredict + st.FTQFull + st.ROBFull
	if sum != st.Total() {
		t.Fatalf("bucket sum %d != Total %d", sum, st.Total())
	}
	if st.Total() == 0 {
		t.Fatal("srv run attributed zero stall cycles")
	}
	if st.L1IMiss == 0 {
		t.Error("srv baseline (high MPKI) attributed no L1I-miss stalls")
	}
	if st.Mispredict == 0 {
		t.Error("no mispredict stalls despite imperfect predictor")
	}
}

// TestStallAttributionRespondsToIdealL1I: removing all L1I misses must
// zero the L1I-miss bucket without touching the invariant.
func TestStallAttributionRespondsToIdealL1I(t *testing.T) {
	base := run(t, workload.Srv, 9, 200_000, nil)
	ideal := run(t, workload.Srv, 9, 200_000, func(c *Config) { c.L1I.Ideal = true })
	if ideal.Stalls.L1IMiss != 0 {
		t.Errorf("ideal L1I still attributed %d L1I-miss stall cycles", ideal.Stalls.L1IMiss)
	}
	if base.Stalls.L1IMiss == 0 {
		t.Error("baseline attributed no L1I-miss stalls")
	}
}

// TestFeedbackReachesPrefetcher runs DJOLT (which implements the
// feedback sink) and asserts the simulator actually delivered feedback.
func TestFeedbackReachesPrefetcher(t *testing.T) {
	p := workload.Preset(workload.Srv)
	p.Name = "srv"
	p.Seed = 10
	prog, err := workload.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	var dj *prefetch.DJolt
	cfg.Prefetcher = func(i prefetch.Issuer) prefetch.Prefetcher {
		dj = prefetch.NewDJolt(i)
		return dj
	}
	m := New(cfg)
	r := m.RunWindows(workload.NewWalker(prog), 0, 300_000)
	if r.Lifecycle.Late > 0 && dj.FeedbackLate != r.Lifecycle.Late {
		t.Errorf("djolt saw %d late feedbacks, lifecycle counted %d", dj.FeedbackLate, r.Lifecycle.Late)
	}
	if r.Lifecycle.EvictedUnused > 0 && dj.FeedbackUseless != r.Lifecycle.EvictedUnused {
		t.Errorf("djolt saw %d useless feedbacks, lifecycle counted %d", dj.FeedbackUseless, r.Lifecycle.EvictedUnused)
	}
	if dj.FeedbackLate+dj.FeedbackUseless == 0 {
		t.Error("no feedback of either kind delivered over a srv run")
	}
}

// TestLifecycleWindowSubtraction: warmup must be excluded from the
// measured window's lifecycle and stall counters.
func TestLifecycleWindowSubtraction(t *testing.T) {
	p := workload.Preset(workload.Srv)
	p.Name = "srv"
	p.Seed = 11
	prog, err := workload.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Prefetcher = func(i prefetch.Issuer) prefetch.Prefetcher { return prefetch.NewDJolt(i) }
	m := New(cfg)
	full := m.RunWindows(workload.NewWalker(prog), 0, 400_000)

	m2 := New(cfg)
	second := m2.RunWindows(workload.NewWalker(prog), 200_000, 200_000)

	// The second window's counters must be a strict sub-range: no more
	// than the full run's, and less than a full re-count would give.
	if second.Lifecycle.Timely > full.Lifecycle.Timely {
		t.Errorf("window timely %d exceeds full-run %d", second.Lifecycle.Timely, full.Lifecycle.Timely)
	}
	if second.Stalls.Total() > full.Stalls.Total() {
		t.Errorf("window stalls %d exceed full-run %d", second.Stalls.Total(), full.Stalls.Total())
	}
	if second.Stalls.Total() == 0 {
		t.Error("measured window attributed zero stalls")
	}
}
