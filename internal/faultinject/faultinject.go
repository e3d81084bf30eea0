// Package faultinject is the repository's deterministic fault layer:
// seed-driven injection of cell panics, cell errors, slow cells and
// checkpoint-record corruption. The harness tests
// use it to prove every failure path of the sweep executor (panic
// recovery, typed cell errors, checkpoint quarantine) without any
// real nondeterminism — whether a given site faults is a pure function
// of (seed, site), independent of goroutine scheduling, parallelism
// and wall-clock time, so a "chaotic" test run is exactly
// reproducible. A fault-prone site faults every time it runs.
//
// The package deliberately knows nothing about the harness: it exposes
// a plain hook function (CellHook) matching the hook signature of
// harness.Options, and the tests wire them together.
package faultinject

import (
	"fmt"
	"sync"
	"time"

	"entangling/internal/stats"
)

// Plan configures which operations fault. Probabilities are evaluated
// deterministically per site: a site either faults on every run or
// never does, for a given seed. The JSON tags are the wire form the
// job server accepts (durations travel as nanoseconds).
type Plan struct {
	// Seed drives every injection decision.
	Seed uint64 `json:"seed"`

	// CellPanicProb is the probability a sweep cell panics.
	CellPanicProb float64 `json:"cell_panic_prob,omitempty"`
	// CellErrorProb is the probability a sweep cell returns an error.
	CellErrorProb float64 `json:"cell_error_prob,omitempty"`
	// CellSlowProb is the probability a sweep cell stalls for SlowDelay
	// before running, which holds the cell in flight (cancellation and
	// drain tests).
	CellSlowProb float64 `json:"cell_slow_prob,omitempty"`
	// SlowDelay is how long a slow cell stalls; the stall does not
	// observe cancellation.
	SlowDelay time.Duration `json:"slow_delay_ns,omitempty"`
}

// Enabled reports whether the plan injects anything at all: a zero
// (or probability-free) Plan is a no-op and needs no Injector.
func (p Plan) Enabled() bool {
	return p.CellPanicProb > 0 || p.CellErrorProb > 0 || p.CellSlowProb > 0
}

// Validate reports the first structural problem with a plan — out of
// range probabilities or a negative stall — or nil. Plans arriving
// from the network are validated before an Injector is built.
func (p Plan) Validate() error {
	probs := map[string]float64{
		"cell_panic_prob": p.CellPanicProb,
		"cell_error_prob": p.CellErrorProb,
		"cell_slow_prob":  p.CellSlowProb,
	}
	// Deterministic report order.
	for _, name := range []string{"cell_panic_prob", "cell_error_prob", "cell_slow_prob"} {
		if v := probs[name]; v < 0 || v > 1 {
			return fmt.Errorf("faultinject: %s %v outside [0,1]", name, v)
		}
	}
	if p.SlowDelay < 0 {
		return fmt.Errorf("faultinject: negative slow delay %v", p.SlowDelay)
	}
	if p.CellSlowProb > 0 && p.SlowDelay == 0 {
		return fmt.Errorf("faultinject: cell_slow_prob set without slow_delay_ns")
	}
	return nil
}

// Counts reports the faults actually injected.
type Counts struct {
	CellPanics       int
	CellErrors       int
	SlowCells        int
	RecordsCorrupted int
}

// Total returns the number of injected faults of all kinds.
func (c Counts) Total() int {
	return c.CellPanics + c.CellErrors + c.SlowCells + c.RecordsCorrupted
}

// Injector injects the faults of a Plan. Safe for concurrent use.
type Injector struct {
	plan Plan

	mu     sync.Mutex
	counts Counts
}

// New returns an injector for the plan.
func New(plan Plan) *Injector {
	return &Injector{plan: plan}
}

// roll decides whether the (kind, site) pair faults. The decision is
// stateless and deterministic: a fault-prone site faults every time.
func (in *Injector) roll(kind, site string, prob float64) bool {
	return prob > 0 && stats.UnitFloat(stats.Hash64(in.plan.Seed, kind, site)) < prob
}

// CellHook matches harness.Options.CellHook: it runs at the start of
// a sweep cell and may panic, stall, or return an error.
func (in *Injector) CellHook(config, workload string) error {
	site := config + "/" + workload
	if in.roll("panic", site, in.plan.CellPanicProb) {
		in.add(func(c *Counts) { c.CellPanics++ })
		panic(fmt.Sprintf("faultinject: injected panic in cell %s", site))
	}
	if in.roll("slow", site, in.plan.CellSlowProb) {
		in.add(func(c *Counts) { c.SlowCells++ })
		time.Sleep(in.plan.SlowDelay)
	}
	if in.roll("error", site, in.plan.CellErrorProb) {
		in.add(func(c *Counts) { c.CellErrors++ })
		return fmt.Errorf("faultinject: injected error in cell %s", site)
	}
	return nil
}

// CorruptRecord returns a copy of b with a few deterministically
// chosen bytes flipped — a model of a torn or bit-rotted checkpoint
// record. The input is never modified. Corrupting an empty record
// returns it unchanged.
func (in *Injector) CorruptRecord(b []byte) []byte {
	out := append([]byte(nil), b...)
	if len(out) == 0 {
		return out
	}
	r := stats.SplitMix64(in.plan.Seed ^ uint64(len(out)))
	for i := 0; i < 3; i++ {
		r = stats.SplitMix64(r)
		pos := int(r % uint64(len(out)))
		// XOR with a nonzero byte guarantees the byte changes.
		out[pos] ^= byte(1 + (r>>8)%255)
	}
	in.add(func(c *Counts) { c.RecordsCorrupted++ })
	return out
}

// Stats returns the faults injected so far.
func (in *Injector) Stats() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

func (in *Injector) add(f func(*Counts)) {
	in.mu.Lock()
	f(&in.counts)
	in.mu.Unlock()
}
