package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestGeomean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2}, 2},
		{[]float64{1, 4}, 2},
		{[]float64{2, 8}, 4},
		{[]float64{1, 1, 1}, 1},
	}
	for _, c := range cases {
		if got := Geomean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Geomean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestGeomeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-positive input")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestGeomeanBetweenMinAndMax(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, x := range raw {
			x = math.Abs(x)
			if x > 1e-9 && x < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		g := Geomean(xs)
		min, max := xs[0], xs[0]
		for _, x := range xs {
			min = math.Min(min, x)
			max = math.Max(max, x)
		}
		return g >= min*(1-1e-9) && g <= max*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMeanAndStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Stddev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Stddev = %v, want 2", got)
	}
	if Mean(nil) != 0 || Stddev(nil) != 0 || Stddev([]float64{1}) != 0 {
		t.Error("empty/singleton summaries should be 0")
	}
}

func TestSortedDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := Sorted(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Sorted mutated its input")
	}
	if s[0] != 1 || s[1] != 2 || s[2] != 3 {
		t.Errorf("Sorted = %v", s)
	}
}

func TestSCurve(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	got := SCurve(xs, 4)
	want := []float64{1, 2, 3, 4}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Fatalf("SCurve = %v, want %v", got, want)
		}
	}
	if SCurve(nil, 4) != nil || SCurve(xs, 0) != nil {
		t.Error("degenerate SCurve should be nil")
	}
	one := SCurve(xs, 1)
	if len(one) != 1 || one[0] != 1 {
		t.Errorf("SCurve n=1 = %v, want [1]", one)
	}
}

func TestSCurveMonotone(t *testing.T) {
	f := func(xs []float64, n uint8) bool {
		for i := range xs {
			if math.IsNaN(xs[i]) {
				xs[i] = 0
			}
		}
		out := SCurve(xs, int(n%32))
		for i := 1; i < len(out); i++ {
			if out[i] < out[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 0) != 0 {
		t.Error("Ratio with zero denominator should be 0")
	}
	if got := Ratio(3, 4); !almostEqual(got, 0.75, 1e-12) {
		t.Errorf("Ratio = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(1, 10)
	for v := 0; v <= 12; v++ {
		h.Add(v)
	}
	if h.Underflow != 1 || h.Overflow != 2 {
		t.Errorf("under=%d over=%d, want 1,2", h.Underflow, h.Overflow)
	}
	if h.Total() != 13 {
		t.Errorf("Total = %d, want 13", h.Total())
	}
	// Cumulative: underflow(1) + buckets 1..5 (5) = 6 of 13.
	if got := h.CumulativeFraction(5); !almostEqual(got, 6.0/13, 1e-12) {
		t.Errorf("CumulativeFraction(5) = %v", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 3)
	b := NewHistogram(0, 3)
	a.Add(1)
	b.Add(1)
	b.Add(5)
	a.Merge(b)
	if a.Buckets[1] != 2 || a.Overflow != 1 {
		t.Errorf("after merge: %+v", a)
	}
}

func TestHistogramMergeShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	NewHistogram(0, 3).Merge(NewHistogram(1, 3))
}

func TestNewHistogramInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	NewHistogram(5, 4)
}

func TestRunningMean(t *testing.T) {
	var r RunningMean
	if r.Mean() != 0 {
		t.Error("empty RunningMean should be 0")
	}
	r.Add(2)
	r.Add(4)
	r.Add(1)
	r.Add(5)
	if r.Count() != 4 {
		t.Errorf("Count = %d, want 4", r.Count())
	}
	if got := r.Mean(); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Mean = %v, want 3", got)
	}
}
