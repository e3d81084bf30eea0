package harness

import (
	"testing"

	"entangling/internal/cpu"
	"entangling/internal/workload"
)

// TestTraceDeterminedModelsAgree holds the branch predictor and the
// L1D to what they are: models whose input is the trace in program
// order and no timing. Every configuration differs from the others
// only in the L1I and its prefetcher, so over one trace every
// virtual-address configuration must report the same L1D hits, misses,
// evictions and fills, the same BTB misses and the same conditional
// accuracy, and so must every physical-address one. The L1D's counter
// laws, the L1I's access law and the agreement of the lifecycle
// tracker with the L1I's prefetch counters are checked on every cell.
func TestTraceDeterminedModelsAgree(t *testing.T) {
	specs := []workload.Spec{
		{Name: "srv-inv", Params: withSeed(workload.Preset(workload.Srv), 3)},
		{Name: "int-inv", Params: withSeed(workload.Preset(workload.Int), 3)},
	}
	cfgs := KnownConfigurations()
	opt := Options{Warmup: 100_000, Measure: 60_000, Parallelism: 2}
	res, err := RunSuite(specs, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		hits, misses, evictions, fills, btbMisses uint64
		condAccuracy                              float64
	}
	for _, s := range specs {
		// ref[physical] is the first configuration of each address
		// mode and its outcome.
		var (
			ref     [2]outcome
			refName [2]string
		)
		for _, c := range cfgs {
			r := res.Runs[c.Name][s.Name].R
			d := r.L1D
			if d.Accesses != d.Hits+d.Misses || d.Fills != d.Misses ||
				d.TagProbes != d.Accesses || d.MSHRMerges > d.Hits {
				t.Errorf("%s/%s: L1D counters break a law: %+v", c.Name, s.Name, d)
			}
			if i := r.L1I; i.Accesses != i.Hits+i.Misses {
				t.Errorf("%s/%s: L1I accesses %d != hits %d + misses %d",
					c.Name, s.Name, i.Accesses, i.Hits, i.Misses)
			}
			// The lifecycle tracker and the L1I count each prefetch
			// outcome on their own; they must agree.
			if l, i := r.Lifecycle, r.L1I; l.Timely != i.TimelyPrefetchHits ||
				l.Late != i.LatePrefetches || l.EvictedUnused != i.WrongPrefetches {
				t.Errorf("%s/%s: lifecycle timely/late/evicted-unused %d/%d/%d, L1I %d/%d/%d",
					c.Name, s.Name, l.Timely, l.Late, l.EvictedUnused,
					i.TimelyPrefetchHits, i.LatePrefetches, i.WrongPrefetches)
			}
			if d.Accesses == 0 || r.BTBMisses == 0 {
				t.Errorf("%s/%s: the window exercised nothing: L1D %d accesses, %d BTB misses",
					c.Name, s.Name, d.Accesses, r.BTBMisses)
			}
			got := outcome{d.Hits, d.Misses, d.Evictions, d.Fills, r.BTBMisses, r.CondAccuracy}
			mode := 0
			if c.Physical {
				mode = 1
			}
			if refName[mode] == "" {
				ref[mode], refName[mode] = got, c.Name
				continue
			}
			if got != ref[mode] {
				t.Errorf("%s/%s: %+v, but %s over the same trace gave %+v",
					c.Name, s.Name, got, refName[mode], ref[mode])
			}
		}
		if refName[0] == "" || refName[1] == "" {
			t.Fatalf("%s: the lineup lacks a virtual or a physical configuration", s.Name)
		}
	}
}

func withSeed(p workload.Params, seed uint64) workload.Params {
	p.Seed = seed
	return p
}

// TestPresolvedOncePerKey: the cells over one trace share its presolved
// outcomes, one stream per address mode, and the trace cache counts
// them as resident.
func TestPresolvedOncePerKey(t *testing.T) {
	spec := workload.Spec{Name: "srv-key", Params: withSeed(workload.Preset(workload.Srv), 5)}
	cache := workload.NewTraceCache()
	const n = 30_000
	tr, err := cache.Pin(spec, n)
	if err != nil {
		t.Fatal(err)
	}
	if cache.ResidentBytes() != tr.Packed.Bytes() {
		t.Fatal("a trace no cell ran over already holds derived bytes")
	}
	cfgs := []Configuration{
		Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
		{Name: "entangling-2k-phys", Prefetcher: "entangling-2k-phys", Physical: true},
		{Name: "entangling-4k-phys", Prefetcher: "entangling-4k-phys", Physical: true},
	}
	// A use held past the sweep keeps its presolved streams alive to be
	// counted.
	cache.Reserve(spec, n, 1)
	if _, err := RunSuite([]workload.Spec{spec}, cfgs, Options{Warmup: n / 2, Measure: n / 2, Parallelism: 4, Traces: cache}); err != nil {
		t.Fatal(err)
	}
	want := tr.Packed.Bytes()
	for _, c := range []Configuration{Baseline, cfgs[2]} {
		mc, err := machineConfig(c, spec.Params.Seed)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := cpu.Presolve(tr.Packed, mc)
		if err != nil {
			t.Fatal(err)
		}
		want += pre.Bytes()
	}
	if got := cache.ResidentBytes(); got != want {
		t.Errorf("ResidentBytes = %d, want %d: the packed stream and two presolved streams", got, want)
	}
	cache.Release(spec, n)
	if got, want := cache.ResidentBytes(), tr.Packed.Bytes(); got != want {
		t.Errorf("after the last use, ResidentBytes = %d, want the packed stream's %d", got, want)
	}
}
