package stats

import "testing"

func TestPrefetchLifecycleDerived(t *testing.T) {
	l := PrefetchLifecycle{
		Timely:          10,
		Late:            4,
		EvictedUnused:   6,
		EarlyEvicted:    2,
		LateCyclesSaved: 100,
		LateCyclesShort: 60,
		LeadCycles:      250,
	}
	if got := l.Inaccurate(); got != 4 {
		t.Errorf("Inaccurate = %d, want 4", got)
	}
	if got := l.MeanLead(); got != 25 {
		t.Errorf("MeanLead = %v, want 25", got)
	}
	if got := l.MeanSaved(); got != 25 {
		t.Errorf("MeanSaved = %v, want 25", got)
	}

	var zero PrefetchLifecycle
	if zero.MeanLead() != 0 || zero.MeanSaved() != 0 || zero.Inaccurate() != 0 {
		t.Error("zero-value lifecycle should have zero derived metrics")
	}
	// EarlyEvicted can transiently exceed EvictedUnused in a window
	// (eviction in warmup, redemand in measurement); clamp, don't wrap.
	skew := PrefetchLifecycle{EarlyEvicted: 3}
	if got := skew.Inaccurate(); got != 0 {
		t.Errorf("clamped Inaccurate = %d, want 0", got)
	}
}

func TestPrefetchLifecycleSub(t *testing.T) {
	a := PrefetchLifecycle{Timely: 10, Late: 5, EvictedUnused: 8, EarlyEvicted: 3,
		LateCyclesSaved: 100, LateCyclesShort: 50, LeadCycles: 200}
	b := PrefetchLifecycle{Timely: 4, Late: 2, EvictedUnused: 3, EarlyEvicted: 1,
		LateCyclesSaved: 40, LateCyclesShort: 20, LeadCycles: 80}
	d := a.Sub(b)
	want := PrefetchLifecycle{Timely: 6, Late: 3, EvictedUnused: 5, EarlyEvicted: 2,
		LateCyclesSaved: 60, LateCyclesShort: 30, LeadCycles: 120}
	if d != want {
		t.Errorf("Sub = %+v, want %+v", d, want)
	}
}

func TestStallBreakdownTotalAndSub(t *testing.T) {
	s := StallBreakdown{L1IMiss: 5, BTBMiss: 4, Mispredict: 3, FTQFull: 2, ROBFull: 1}
	if got := s.Total(); got != 15 {
		t.Errorf("Total = %d, want 15", got)
	}
	d := s.Sub(StallBreakdown{L1IMiss: 1, BTBMiss: 1, Mispredict: 1, FTQFull: 1, ROBFull: 1})
	if d.Total() != 10 {
		t.Errorf("Sub total = %d, want 10", d.Total())
	}
	// The attribution must stay complete under subtraction.
	if d.L1IMiss+d.BTBMiss+d.Mispredict+d.FTQFull+d.ROBFull != d.Total() {
		t.Error("bucket sum != Total after Sub")
	}
}
