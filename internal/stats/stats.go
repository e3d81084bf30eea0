// Package stats provides the small statistical toolkit used by the
// simulator and the experiment harness: geometric means for IPC
// aggregation, arithmetic summaries, sorted series for the paper's
// per-workload "S-curve" figures, and fixed-bucket histograms.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Geomean returns the geometric mean of xs. It returns 0 for an empty
// slice and panics if any value is non-positive, since a geometric mean
// of speedups is only meaningful over positive ratios.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: Geomean requires positive values, got %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// FilterFinite returns the finite values of xs, dropping NaN and ±Inf.
// The harness's per-workload metric vectors are NaN-padded so they stay
// aligned with the workload order; aggregations (means, geomeans,
// S-curves) call FilterFinite at the point of use.
func FilterFinite(xs []float64) []float64 {
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			out = append(out, x)
		}
	}
	return out
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the population standard deviation of xs, or 0 when xs
// has fewer than two elements.
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(xs)))
}

// Sorted returns a copy of xs sorted ascending. The paper's Figures 7-10
// plot each configuration's per-workload metric sorted independently;
// Sorted is the building block for those series.
func Sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// SCurve resamples the sorted values of xs at n evenly spaced points, so
// series with different workload counts can be compared on one axis.
// It returns nil when xs is empty or n <= 0.
func SCurve(xs []float64, n int) []float64 {
	if len(xs) == 0 || n <= 0 {
		return nil
	}
	s := Sorted(xs)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var pos float64
		if n == 1 {
			pos = 0
		} else {
			pos = float64(i) / float64(n-1) * float64(len(s)-1)
		}
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		if lo == hi {
			out[i] = s[lo]
		} else {
			frac := pos - float64(lo)
			out[i] = s[lo]*(1-frac) + s[hi]*frac
		}
	}
	return out
}

// Ratio returns num/den, or 0 when den is 0. It is the safe division
// used throughout metric computation (coverage, accuracy, miss ratios).
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Histogram is a fixed-bucket histogram over int-labelled buckets plus
// an overflow bucket, used e.g. for the look-ahead-distance study
// (Figure 1) and the compression-mode distribution (Figure 12).
type Histogram struct {
	// Buckets[i] counts observations with value == Lo+i.
	Buckets []uint64
	// Overflow counts observations with value > Lo+len(Buckets)-1.
	Overflow uint64
	// Underflow counts observations with value < Lo.
	Underflow uint64
	// Lo is the value of the first bucket.
	Lo int
}

// NewHistogram creates a histogram covering [lo, hi] inclusive.
func NewHistogram(lo, hi int) *Histogram {
	if hi < lo {
		panic("stats: NewHistogram requires hi >= lo")
	}
	return &Histogram{Buckets: make([]uint64, hi-lo+1), Lo: lo}
}

// Add records one observation of value v.
func (h *Histogram) Add(v int) {
	switch {
	case v < h.Lo:
		h.Underflow++
	case v >= h.Lo+len(h.Buckets):
		h.Overflow++
	default:
		h.Buckets[v-h.Lo]++
	}
}

// Total returns the number of observations recorded, including under-
// and overflow.
func (h *Histogram) Total() uint64 {
	t := h.Underflow + h.Overflow
	for _, b := range h.Buckets {
		t += b
	}
	return t
}

// CumulativeFraction returns the fraction of observations with value
// <= v (treating underflow as below every bucket).
func (h *Histogram) CumulativeFraction(v int) float64 {
	t := h.Total()
	if t == 0 {
		return 0
	}
	sum := h.Underflow
	for i, b := range h.Buckets {
		if h.Lo+i > v {
			break
		}
		sum += b
	}
	return float64(sum) / float64(t)
}

// Merge adds the counts of other into h. The histograms must have the
// same shape.
func (h *Histogram) Merge(other *Histogram) {
	if other.Lo != h.Lo || len(other.Buckets) != len(h.Buckets) {
		panic("stats: Merge requires identical histogram shapes")
	}
	h.Underflow += other.Underflow
	h.Overflow += other.Overflow
	for i := range h.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// Clone returns an independent deep copy of h. The simulator's window
// snapshot (cpu's snap()) clones the lead histogram at window start so
// the live histogram can keep counting and be diffed with Sub later.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.Buckets = append([]uint64(nil), h.Buckets...)
	return &c
}

// Sub returns h - o bucket-wise as a new histogram, for measurement-
// window extraction (o is the snapshot taken at window start). The
// histograms must have the same shape, and h must dominate o — counts
// only ever grow, so a bucket of h smaller than o's means the snapshot
// does not belong to this histogram.
func (h *Histogram) Sub(o *Histogram) *Histogram {
	if o.Lo != h.Lo || len(o.Buckets) != len(h.Buckets) {
		panic("stats: Sub requires identical histogram shapes")
	}
	if o.Underflow > h.Underflow || o.Overflow > h.Overflow {
		panic("stats: Sub requires h to dominate the snapshot")
	}
	d := &Histogram{
		Buckets:   make([]uint64, len(h.Buckets)),
		Overflow:  h.Overflow - o.Overflow,
		Underflow: h.Underflow - o.Underflow,
		Lo:        h.Lo,
	}
	for i := range h.Buckets {
		if o.Buckets[i] > h.Buckets[i] {
			panic("stats: Sub requires h to dominate the snapshot")
		}
		d.Buckets[i] = h.Buckets[i] - o.Buckets[i]
	}
	return d
}

// Quantile returns the smallest bucket value v such that at least
// q (0 < q <= 1) of all observations are <= v. Underflow counts as
// below every bucket (it resolves to Lo); observations that landed in
// Overflow resolve to Lo+len(Buckets) — one past the highest labelled
// bucket — so a heavy tail is visible rather than clamped. Returns 0
// when the histogram is empty. Deterministic: pure integer counting,
// no floating-point accumulation order to vary.
func (h *Histogram) Quantile(q float64) int {
	t := h.Total()
	if t == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Rank of the target observation, 1-based, computed in integers.
	rank := uint64(math.Ceil(q * float64(t)))
	if rank == 0 {
		rank = 1
	}
	cum := h.Underflow
	if cum >= rank {
		return h.Lo
	}
	for i, b := range h.Buckets {
		cum += b
		if cum >= rank {
			return h.Lo + i
		}
	}
	return h.Lo + len(h.Buckets)
}

// RunningMean accumulates a mean without storing samples.
type RunningMean struct {
	n   uint64
	sum float64
}

// Add records one sample.
func (r *RunningMean) Add(x float64) { r.n++; r.sum += x }

// Mean returns the current mean (0 before any samples).
func (r *RunningMean) Mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}
