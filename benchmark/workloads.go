package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"entangling/internal/harness"
)

// scale sizes a run's inputs. full is the benchmark; smoke runs every
// code path in about a second, for tests.
type scale struct {
	name                      string
	sweepWarmup, sweepMeasure uint64
	serveWarmup, serveMeasure uint64
	hotOps                    int           // serve-hot jobs per rep
	ladderSample              time.Duration // runLadder's minSample
}

var scales = map[string]scale{
	"full":  {name: "full", sweepWarmup: 400_000, sweepMeasure: 200_000, serveWarmup: 100_000, serveMeasure: 50_000, hotOps: 5000, ladderSample: 30 * time.Millisecond},
	"smoke": {name: "smoke", sweepWarmup: 10_000, sweepMeasure: 5_000, serveWarmup: 4_000, serveMeasure: 2_000, hotOps: 120, ladderSample: time.Millisecond},
}

// workloadDef is one named workload. Why each exists is recorded in
// BENCHMARK.json and benchmark/README.md.
type workloadDef struct {
	name string
	run  func(ctx context.Context, p params) (*result, error)
}

// workloads, in the order -workload all runs them.
var workloads = []workloadDef{
	{"sweep-paper", runSweepPaper},
	{"sweep-nopf", func(ctx context.Context, p params) (*result, error) {
		return runSweep(ctx, p, noPrefetchConfigurations(), pinnedNoPFSHA)
	}},
	{"serve-cold", runServeCold},
	{"serve-hot", runServeHot},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

// runSweepPaper is the paper's Figure 6 lineup over eight traces. At
// full scale it also reruns the 28-cell sweep cmd/bench is pinned to,
// after measuring, so the check costs no measured time or memory.
func runSweepPaper(ctx context.Context, p params) (*result, error) {
	res, err := runSweep(ctx, p, harness.StandardConfigurations(), pinnedPaperSHA)
	if err != nil || p.scale.name != "full" {
		return res, err
	}
	sha, err := checkPinnedBench(ctx)
	if err != nil {
		return nil, fmt.Errorf("pinned 28-cell sweep: %w", err)
	}
	res.notes = append(res.notes, "pinned 28-cell sweep fingerprint "+sha)
	if sha != pinnedBenchSHA {
		res.correct = false
		res.notes = append(res.notes, "pinned 28-cell sweep fingerprint does not match "+pinnedBenchSHA)
	}
	return res, nil
}

// finish totals the reps' ops and computes the metrics: end-to-end
// always, per-layer (the simulator layers from sim, the op path from the
// traced reps) in a traced run. slots is how many ops run at once.
func finish(p params, res *result, reps []rep, slots int, sim func() ([]metric, error)) (*result, error) {
	for _, r := range reps {
		res.attempted += len(r.ops) + r.failed
		res.failed += r.failed
	}
	if res.failed > 0 {
		res.correct = false
	}
	var err error
	if res.e2e, err = endToEnd(reps); err != nil {
		return nil, err
	}
	var probes []float64
	for _, r := range reps {
		for _, d := range r.probes {
			probes = append(probes, ms(d))
		}
	}
	hostMS := median(probes)
	res.notes = append(res.notes, fmt.Sprintf("host: the reference kernel took a median %.1f ms (nominal %.0f ms); timings are scaled to the nominal speed", hostMS, ms(refNominal)))
	if !p.trace {
		return res, nil
	}
	if res.layers, err = sim(); err != nil {
		return nil, err
	}
	ops, err := opLayers(reps, slots)
	if err != nil {
		return nil, err
	}
	res.layers = append(res.layers, ops...)
	res.layers = append(res.layers, metric{name: "host.ref_kernel_ms", unit: "ms", value: hostMS, n: len(probes)})
	return res, nil
}
