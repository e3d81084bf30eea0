package oracle

import (
	"testing"

	"entangling/internal/cache"
	"entangling/internal/prefetch"
	"entangling/internal/trace"
)

func takenBranch(cycle uint64) prefetch.BranchEvent {
	return prefetch.BranchEvent{Cycle: cycle, Taken: true, Type: trace.DirectJump, Target: 0x1000}
}

func demandFill(issue, fill uint64) cache.FillEvent {
	return cache.FillEvent{IssueCycle: issue, Cycle: fill, Demanded: true, LineAddr: 7}
}

func TestDistanceOne(t *testing.T) {
	o := New()
	// Discontinuity at cycle 0; miss at cycle 100 with latency 50:
	// issuing at the previous discontinuity (d=1) is 100 cycles early.
	o.OnBranch(takenBranch(0))
	o.OnFill(demandFill(100, 150))
	if o.Distances.Buckets[0] != 1 {
		t.Errorf("distance histogram: %+v", o.Distances)
	}
	if f := o.Distances.CumulativeFraction(1); f != 1 {
		t.Errorf("timely fraction at distance 1 = %v", f)
	}
}

func TestDistanceCountsInterveningDiscontinuities(t *testing.T) {
	o := New()
	// Discontinuities at 0, 60, 70, 80; miss at 100, latency 50:
	// deadline 50. Discontinuities after the deadline: 60, 70, 80 (3),
	// so the prefetch must be issued 4 discontinuities ahead.
	for _, c := range []uint64{0, 60, 70, 80} {
		o.OnBranch(takenBranch(c))
	}
	o.OnFill(demandFill(100, 150))
	if o.Distances.Buckets[3] != 1 {
		t.Errorf("expected distance 4, histogram %+v", o.Distances.Buckets)
	}
}

func TestOverflowDistance(t *testing.T) {
	o := New()
	// Miss at 1000 with latency 100 (deadline 900); 15 discontinuities
	// land after the deadline, so even a look-ahead of 10 is too short.
	o.OnBranch(takenBranch(100))
	for i := uint64(0); i < 15; i++ {
		o.OnBranch(takenBranch(905 + i*5))
	}
	o.OnFill(demandFill(1000, 1100))
	if o.Distances.Overflow != 1 {
		t.Errorf("expected overflow, histogram %+v", o.Distances)
	}
}

func TestNoDiscontinuityHistory(t *testing.T) {
	o := New()
	// No discontinuities at all: the walk finds nothing after the
	// deadline, so distance 1 suffices... but with an empty ring the
	// loop ends without finding an entry at or before the deadline;
	// the miss lands in the overflow bucket (cannot be served by any
	// recorded discontinuity).
	o.OnFill(demandFill(100, 150))
	if o.Distances.Total() != 1 {
		t.Errorf("miss not recorded: %+v", o.Distances)
	}
}

func TestUntakenBranchesIgnored(t *testing.T) {
	o := New()
	o.OnBranch(prefetch.BranchEvent{Cycle: 5, Taken: false, Type: trace.CondBranch})
	o.OnBranch(takenBranch(0))
	o.OnFill(demandFill(100, 150))
	if o.Distances.Buckets[0] != 1 {
		t.Errorf("untaken branch affected the distance: %+v", o.Distances.Buckets)
	}
}

func TestPrefetchFillsIgnored(t *testing.T) {
	o := New()
	o.OnBranch(takenBranch(0))
	o.OnFill(cache.FillEvent{IssueCycle: 10, Cycle: 60, Demanded: false})
	if o.Distances.Total() != 0 {
		t.Error("non-demanded fill recorded")
	}
}

func TestFutureDiscontinuitiesSkipped(t *testing.T) {
	o := New()
	// The decoupled front-end may log discontinuities predicted after
	// the miss; they must not count toward the distance.
	o.OnBranch(takenBranch(0))
	o.OnBranch(takenBranch(200)) // after the miss
	o.OnFill(demandFill(100, 150))
	if o.Distances.Buckets[0] != 1 {
		t.Errorf("future discontinuity counted: %+v", o.Distances.Buckets)
	}
}

func TestListenerNoOps(t *testing.T) {
	o := New()
	o.OnAccess(cache.AccessEvent{})
	o.OnEvict(cache.EvictEvent{})
	if o.Distances.Total() != 0 {
		t.Error("no-op hooks recorded something")
	}
}

func TestTimelyFractionMonotone(t *testing.T) {
	o := New()
	for i := uint64(0); i < 40; i++ {
		o.OnBranch(takenBranch(i * 13))
	}
	for i := uint64(0); i < 20; i++ {
		o.OnFill(demandFill(200+i*17, 260+i*23))
	}
	for d := 2; d <= maxTracked; d++ {
		if f, prev := o.Distances.CumulativeFraction(d), o.Distances.CumulativeFraction(d-1); f < prev {
			t.Errorf("timely fraction not monotone at distance %d: %v < %v", d, f, prev)
		}
	}
}
