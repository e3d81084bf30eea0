package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"entangling/internal/bpred"
	"entangling/internal/cache"
	"entangling/internal/cpu"
	"entangling/internal/prefetch"
	"entangling/internal/workload"
)

// family is one prefetcher family of the sweep-paper lineup, measured
// through one of its configurations.
type family struct{ name, prefetcher string }

// families are the prefetcher families of harness.StandardConfigurations.
// "no" comes first: every other family's cost is taken against it.
var families = []family{
	{"no", "no"},
	{"nextline", "nextline"},
	{"sn4l", "sn4l"},
	{"mana", "mana-4k"},
	{"rdip", "rdip"},
	{"djolt", "djolt"},
	{"fnl-mma", "fnl+mma"},
	{"epi", "epi"},
	{"entangling", "entangling-4k"},
}

// hookCounts tallies the traffic between one machine and its prefetcher.
type hookCounts struct {
	hooks            uint64 // calls into the prefetcher
	issued, accepted uint64 // prefetch requests, and those the L1I took
}

// countingFactory builds the named prefetcher behind wrappers that count
// its hook calls and prefetch requests into n. The wrappers forward every
// call and answer, so the machine's results are unchanged.
func countingFactory(name string, n *hookCounts) prefetch.Factory {
	return func(is prefetch.Issuer) prefetch.Prefetcher {
		pf, err := prefetch.New(name, countingIssuer{next: is, n: n})
		if err != nil {
			panic(err) // families names registered prefetchers only; a test builds each
		}
		sink, _ := pf.(cache.FeedbackSink)
		return &countingPrefetcher{pf: pf, sink: sink, n: n}
	}
}

type countingIssuer struct {
	next prefetch.Issuer
	n    *hookCounts
}

func (c countingIssuer) Prefetch(notBefore, lineAddr, meta uint64) bool {
	c.n.issued++
	ok := c.next.Prefetch(notBefore, lineAddr, meta)
	if ok {
		c.n.accepted++
	}
	return ok
}

type countingPrefetcher struct {
	pf   prefetch.Prefetcher
	sink cache.FeedbackSink // pf's feedback hook; nil when it has none
	n    *hookCounts
}

func (c *countingPrefetcher) Name() string                    { return c.pf.Name() }
func (c *countingPrefetcher) StorageBits() uint64             { return c.pf.StorageBits() }
func (c *countingPrefetcher) OnAccess(e cache.AccessEvent)    { c.n.hooks++; c.pf.OnAccess(e) }
func (c *countingPrefetcher) OnFill(e cache.FillEvent)        { c.n.hooks++; c.pf.OnFill(e) }
func (c *countingPrefetcher) OnEvict(e cache.EvictEvent)      { c.n.hooks++; c.pf.OnEvict(e) }
func (c *countingPrefetcher) OnBranch(e prefetch.BranchEvent) { c.n.hooks++; c.pf.OnBranch(e) }

func (c *countingPrefetcher) OnPrefetchFeedback(f cache.PrefetchFeedback) {
	if c.sink != nil {
		c.n.hooks++
		c.sink.OnPrefetchFeedback(f)
	}
}

// ladderMachine is the machine the harness builds for a configuration
// (cpu.DefaultConfig) with an ideal or real L1I and the given prefetcher.
func ladderMachine(idealL1I bool, pf prefetch.Factory) *cpu.Machine {
	mc := cpu.DefaultConfig()
	mc.L1I.Ideal = idealL1I
	mc.Prefetcher = pf
	return cpu.New(mc)
}

// The ladder's steps. Each adds one layer to the step before, so the
// difference between two steps is that layer's host time. The steps
// from stepFamilies on run families[s-stepFamilies]'s machine; the
// first of them, "no", is the ladder's total.
const (
	stepWalk     = iota // the slice walk alone
	stepBpred           // the walk plus Process on every branch
	stepL1D             // the walk plus an isolated L1D->L2->LLC->DRAM replay
	stepIdeal           // the machine with an ideal L1I and no prefetcher
	stepFamilies        // the machines with a real L1I
)

var numSteps = stepFamilies + len(families)

// ladderCounts are what one pass of every step over every trace counts.
type ladderCounts struct {
	instrs, branches, dataAccesses uint64
	l1iMisses, measured            uint64 // of the no-prefetcher machine's measure window
	hooks                          []hookCounts
	checksum                       uint64 // keeps the walk from being optimized away
}

// ladderSteps returns one pass of each step over tr. A pass starts from
// fresh state, adds what it counted to c and returns its host time;
// building a predictor, a cache or a machine is not timed.
func ladderSteps(tr *workload.Trace, warmup, measure uint64) []func(c *ladderCounts) time.Duration {
	ins := tr.Instrs
	dc := cpu.DefaultConfig()
	steps := []func(c *ladderCounts) time.Duration{
		stepWalk: func(c *ladderCounts) time.Duration {
			t := time.Now()
			var sum uint64
			for i := range ins {
				sum += ins[i].PC ^ ins[i].DataAddr
			}
			d := time.Since(t)
			c.instrs += uint64(len(ins))
			c.checksum += sum
			return d
		},
		stepBpred: func(c *ladderCounts) time.Duration {
			p := bpred.New(dc.Pred)
			t := time.Now()
			for i := range ins {
				if ins[i].Branch.IsBranch() {
					p.Process(&ins[i])
				}
			}
			d := time.Since(t)
			c.branches += p.Lookups
			return d
		},
		stepL1D: func(c *ladderCounts) time.Duration {
			l1d := cache.NewTimingCache(dc.L1D, cache.NewTimingCache(dc.L2, cache.NewTimingCache(dc.LLC, cache.NewDRAM(dc.DRAM))))
			t := time.Now()
			for i := range ins {
				if in := &ins[i]; in.IsLoad || in.IsStore {
					l1d.Access(uint64(i), cache.LineAddr(in.DataAddr), false)
				}
			}
			d := time.Since(t)
			c.dataAccesses += l1d.Stats().Accesses
			return d
		},
		stepIdeal: func(c *ladderCounts) time.Duration {
			var idle hookCounts
			m := ladderMachine(true, countingFactory("no", &idle))
			t := time.Now()
			m.RunWindows(tr.Source(), warmup, measure)
			return time.Since(t)
		},
	}
	for k, f := range families {
		steps = append(steps, func(c *ladderCounts) time.Duration {
			m := ladderMachine(false, countingFactory(f.prefetcher, &c.hooks[k]))
			t := time.Now()
			res := m.RunWindows(tr.Source(), warmup, measure)
			d := time.Since(t)
			if k == 0 {
				c.l1iMisses += res.L1I.Misses
				c.measured += res.Instructions
			}
			return d
		})
	}
	return steps
}

// ladderRounds is how many timed rounds the ladder runs. Every round
// times every step of every trace, one at a time, so a trace's steps in
// one round run within a second of each other.
const ladderRounds = 6

// ladder is the ladder run over a set of traces.
type ladder struct {
	ladderCounts
	// time[s] is step s's host time, at reference speed, for one pass
	// over every trace, and half[h][s] the same from the first (h = 0)
	// or second (h = 1) half of the rounds alone.
	time []time.Duration
	half [2][]time.Duration
}

// runLadder runs the ladder over traces on the calling goroutine alone:
// one untimed round that counts, then ladderRounds timed rounds. It
// stops between timings once ctx is canceled. minSample is the shortest
// time one timing of a step covers: a shorter step is repeated within
// the timing, so the timer's resolution and brief stalls of the host
// stay small beside it.
func runLadder(ctx context.Context, traces []*workload.Trace, warmup, measure uint64, minSample time.Duration) (ladder, error) {
	l := ladder{ladderCounts: ladderCounts{hooks: make([]hookCounts, len(families))}}
	steps := make([][]func(c *ladderCounts) time.Duration, len(traces))
	for i, tr := range traces {
		steps[i] = ladderSteps(tr, warmup, measure)
		for _, pass := range steps[i] {
			pass(&l.ladderCounts)
		}
	}
	// rounds[i][r][s] is trace i's time per pass of step s in round r, at
	// reference speed: each trace's row in a round is scaled by the
	// probes of the host's speed around it.
	rounds := make([][][]time.Duration, len(traces))
	discard := ladderCounts{hooks: make([]hookCounts, len(families))}
	before, err := probe()
	if err != nil {
		return ladder{}, err
	}
	for r := 0; r < ladderRounds; r++ {
		for i := range traces {
			row := make([]time.Duration, numSteps)
			for s, pass := range steps[i] {
				if err := ctx.Err(); err != nil {
					return ladder{}, err
				}
				var total time.Duration
				n := 0
				for total < minSample {
					total += pass(&discard)
					n++
				}
				row[s] = total / time.Duration(n)
			}
			after, err := probe()
			if err != nil {
				return ladder{}, err
			}
			for s := range row {
				row[s] = time.Duration(float64(row[s]) * speedScale(before, after))
			}
			before = after
			rounds[i] = append(rounds[i], row)
		}
	}
	l.time = make([]time.Duration, numSteps)
	l.half[0], l.half[1] = make([]time.Duration, numSteps), make([]time.Duration, numSteps)
	for i := range traces {
		for s, d := range estimate(rounds[i]) {
			l.time[s] += d
		}
		for h := range l.half {
			for s, d := range estimate(rounds[i][h*ladderRounds/2 : (h+1)*ladderRounds/2]) {
				l.half[h][s] += d
			}
		}
	}
	return l, nil
}

// estimate returns each step's time from one trace's rounds: its median
// ratio to the no-prefetcher machine timed in the same round, times that
// machine's fastest round. The host's speed drifts by up to 1.6x over
// seconds; within one round every step sees about the same speed, so
// the ratios hold while raw times taken in different rounds would not.
func estimate(rounds [][]time.Duration) []time.Duration {
	const ref = stepFamilies
	fastest := rounds[0][ref]
	for _, row := range rounds {
		fastest = min(fastest, row[ref])
	}
	out := make([]time.Duration, numSteps)
	for s := range out {
		var ratios []float64
		for _, row := range rounds {
			ratios = append(ratios, float64(row[s])/float64(row[ref]))
		}
		out[s] = time.Duration(median(ratios) * float64(fastest))
	}
	return out
}

// layer is one layer's share of the ladder total, in ns per instruction.
type layer struct {
	name string
	ns   float64
}

// perInstr is step s's time in t, in ns per instruction.
func (l *ladder) perInstr(t []time.Duration, s int) float64 {
	return ratio(float64(t[s]), float64(l.instrs))
}

// layers splits the no-prefetcher machine's host time t[stepFamilies]
// into its layers: walk, branch prediction, L1D hierarchy, the
// pipeline's own work and the real L1I. They sum to that total by
// construction.
func (l *ladder) layers(t []time.Duration) []layer {
	walk, bp, dc := l.perInstr(t, stepWalk), l.perInstr(t, stepBpred), l.perInstr(t, stepL1D)
	ideal, total := l.perInstr(t, stepIdeal), l.perInstr(t, stepFamilies)
	return []layer{
		{"walk", walk},
		{"bpred", bp - walk},
		{"l1d", dc - walk},
		{"pipeline_self", ideal - (bp - walk) - (dc - walk) - walk},
		{"l1i", total - ideal},
	}
}

// prefetchLayers is each prefetcher family's layer in t: its machine's
// time beyond the no-prefetcher machine's.
func (l *ladder) prefetchLayers(t []time.Duration) []layer {
	var out []layer
	for k, f := range families[1:] {
		out = append(out, layer{f.name, l.perInstr(t, stepFamilies+k+1) - l.perInstr(t, stepFamilies)})
	}
	return out
}

// noise is the most the two halves of the rounds disagree on any layer,
// in ns per instruction. The halves run one after the other, so it also
// shows how far the host drifted during the ladder. A layer's time
// below it cannot be told from that drift.
func (l *ladder) noise() float64 {
	var worst float64
	a := append(l.layers(l.half[0]), l.prefetchLayers(l.half[0])...)
	b := append(l.layers(l.half[1]), l.prefetchLayers(l.half[1])...)
	for k := range a {
		worst = max(worst, math.Abs(a[k].ns-b[k].ns))
	}
	return worst
}

// simLayers materializes each spec's trace and runs the ladder over
// them, giving the per-layer metrics of the simulator.
func simLayers(ctx context.Context, specs []workload.Spec, warmup, measure uint64, minSample time.Duration) ([]metric, error) {
	traces := make([]*workload.Trace, len(specs))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i, s := range specs {
		tr, err := workload.Materialize(s, warmup+measure)
		if err != nil {
			return nil, fmt.Errorf("materializing %s: %w", s.Name, err)
		}
		traces[i] = tr
	}
	build := time.Since(t)
	runtime.ReadMemStats(&m1)
	l, err := runLadder(ctx, traces, warmup, measure, minSample)
	if err != nil {
		return nil, err
	}
	return ladderMetrics(&l, build, m1.TotalAlloc-m0.TotalAlloc, len(specs)), nil
}

// ladderMetrics names the ladder's layers; n is the number of traces.
func ladderMetrics(l *ladder, build time.Duration, buildBytes uint64, n int) []metric {
	instrs := float64(l.instrs)
	pki := func(c uint64) float64 { return ratio(float64(c)*1000, instrs) }
	s := map[string]float64{}
	for _, st := range append(l.layers(l.time), l.prefetchLayers(l.time)...) {
		s[st.name] = st.ns
	}
	out := []metric{
		{name: "workload.materialize_ns_per_instr", unit: "ns", value: ratio(float64(build), instrs), n: n},
		{name: "workload.alloc_bytes_per_instr", unit: "B", value: ratio(float64(buildBytes), instrs), n: n},
		{name: "ladder.total_ns_per_instr", unit: "ns", value: l.perInstr(l.time, stepFamilies), n: n},
		{name: "ladder.noise_ns_per_instr", unit: "ns", value: l.noise(), n: n},
		{name: "ladder.walk_ns_per_instr", unit: "ns", value: s["walk"], n: n},
		{name: "bpred.ns_per_branch", unit: "ns", value: ratio(s["bpred"]*instrs, float64(l.branches)), n: n},
		{name: "bpred.branches_pki", unit: "count", value: pki(l.branches), n: n},
		{name: "cache.l1d_ns_per_access", unit: "ns", value: ratio(s["l1d"]*instrs, float64(l.dataAccesses)), n: n},
		{name: "cache.l1d_accesses_pki", unit: "count", value: pki(l.dataAccesses), n: n},
		{name: "cpu.pipeline_self_ns_per_instr", unit: "ns", value: s["pipeline_self"], n: n},
		{name: "cache.l1i_ns_per_instr", unit: "ns", value: s["l1i"], n: n},
		{name: "cache.l1i_mpki", unit: "count", value: ratio(float64(l.l1iMisses)*1000, float64(l.measured)), n: n},
		{name: "prefetch.no.hook_calls_pki", unit: "count", value: pki(l.hooks[0].hooks), n: n},
	}
	for i, f := range families[1:] {
		ns := s[f.name]
		c := l.hooks[i+1]
		out = append(out,
			metric{name: "prefetch." + f.name + ".ns_per_instr", unit: "ns", value: ns, n: n},
			metric{name: "prefetch." + f.name + ".hook_calls_pki", unit: "count", value: pki(c.hooks), n: n},
			metric{name: "prefetch." + f.name + ".ns_per_hook", unit: "ns", value: ratio(ns*instrs, float64(c.hooks)), n: n},
			metric{name: "prefetch." + f.name + ".issue_accept_ratio", unit: "ratio", value: ratio(float64(c.accepted), float64(c.issued)), n: n},
		)
	}
	return out
}
