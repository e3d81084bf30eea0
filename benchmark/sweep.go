package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"entangling/internal/harness"
	"entangling/internal/stats"
	"entangling/internal/workload"
)

// Metrics fingerprints (SHA-256 of harness.WriteMetricsJSON) of the
// full-scale sweeps, exported in the paper's configuration order. A change that alters any simulated
// number changes them; a pure speed-up must not.
const (
	pinnedPaperSHA = "72edabd119c3cb95657a7f706c78bad77990cd50b50990423e6cb4499d3aa8c6"
	pinnedNoPFSHA  = "02cf59da9b900bcee841046ab8cc2c0aa6255dab1082fccb79bc71198e21e313"
	// pinnedBenchSHA is the 28-cell harness.PinnedBenchSpecs x
	// PinnedBenchConfigurations sweep that cmd/bench and the BENCH_*.json
	// history are measured on.
	pinnedBenchSHA = "7a8390cd658a6e433effaac4463bc5eb18e0856b1f157235b1c40f34e17f840b"
)

// noPrefetchConfigurations is the sweep-nopf lineup: the §IV-B
// configurations that run no prefetcher.
func noPrefetchConfigurations() []harness.Configuration {
	var out []harness.Configuration
	for _, c := range harness.StandardConfigurations() {
		if c.Prefetcher == "" {
			out = append(out, c)
		}
	}
	return out
}

// shuffled returns cfgs in the order seed draws; seed 0 keeps the
// paper's order. The seed permutes configurations rather than drawing
// new program variants: variants move host cost per instruction by
// about 10% from seed to seed, on top of the host's own run-to-run
// spread, while a permutation keeps the work fixed and lets every seed
// be checked against the pinned fingerprints. Traces keep their order,
// so cell finish times stay comparable across seeds.
func shuffled(cfgs []harness.Configuration, seed uint64) []harness.Configuration {
	out := append([]harness.Configuration(nil), cfgs...)
	if seed == 0 {
		return out
	}
	for i := len(out) - 1; i > 0; i-- {
		j := int(draw(seed, uint64(i)) % uint64(i+1))
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// draw derives the i-th input decision of a seed.
func draw(seed, i uint64) uint64 { return stats.SplitMix64(stats.SplitMix64(seed) ^ i) }

// sweep is one configurations x traces sweep through the harness.
type sweep struct {
	specs           []workload.Spec
	cfgs            []harness.Configuration // in the order cells are submitted
	order           []string                // configuration names in the paper's order
	warmup, measure uint64
}

// runSweep measures a cold sweep workload over workload.CVPSuite(2):
// every rep materializes its traces into a fresh cache (the set-up) and
// then runs the sweep with procs workers. Every rep must produce the
// same metrics fingerprint, and at full scale that fingerprint must
// equal pinned.
func runSweep(ctx context.Context, p params, cfgs []harness.Configuration, pinned string) (*result, error) {
	sw := sweep{
		specs: workload.CVPSuite(2), cfgs: shuffled(cfgs, p.seed), order: configNames(cfgs),
		warmup: p.scale.sweepWarmup, measure: p.scale.sweepMeasure,
	}
	res := &result{correct: true}
	if p.scale.name != "full" {
		pinned = ""
	}
	var first string
	var model *harness.SuiteResults
	reps, err := measureReps(ctx, p, func(ctx context.Context, i int, traced bool) (rep, error) {
		r, s, err := sw.rep(ctx, traced)
		if err != nil {
			return r, err
		}
		s.ConfigOrder = sw.order // the export, and so the fingerprint, in the paper's order
		sha, err := fingerprint(s)
		if err != nil {
			return r, err
		}
		if i == 0 {
			first, model = sha, s
			res.notes = append(res.notes, "fingerprint "+sha)
		}
		if sha != first || (pinned != "" && sha != pinned) {
			res.correct = false
			r.failed += len(r.ops)
			r.ops = nil
			// Printed now: a run whose every rep fails ends without a report.
			fmt.Fprintf(os.Stderr, "rep %d fingerprint %s does not match rep 0's %s or the pinned %q\n", i, sha, first, pinned)
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	for _, c := range model.ConfigOrder {
		res.model = append(res.model, fmt.Sprintf("geomean_ipc_speedup %-14s %.4f", c, model.GeomeanSpeedup(c)))
	}
	// ops_per_s counts cells; simulated instructions per second is the
	// same number in the paper's unit.
	cells := len(sw.specs) * len(sw.cfgs)
	var rate []float64
	for _, r := range reps {
		rate = append(rate, float64(cells)*float64(sw.warmup+sw.measure)/r.wall.Seconds()/1e6)
	}
	res.notes = append(res.notes, fmt.Sprintf("%d cells of %d instructions per rep; median %.2f simulated Minstr/s",
		cells, sw.warmup+sw.measure, median(rate)))
	return finish(p, res, reps, procs, func() ([]metric, error) {
		return simLayers(ctx, sw.specs, sw.warmup, sw.measure, p.scale.ladderSample)
	})
}

// rep runs one cold sweep.
func (s *sweep) rep(ctx context.Context, traced bool) (rep, *harness.SuiteResults, error) {
	var r rep
	cache := workload.NewTraceCache()
	t0 := time.Now()
	for _, sp := range s.specs {
		if _, err := cache.Pin(sp, s.warmup+s.measure); err != nil {
			return r, nil, fmt.Errorf("materializing %s: %w", sp.Name, err)
		}
	}
	if err := r.endSetup(t0); err != nil {
		return r, nil, err
	}

	var (
		mu      sync.Mutex
		started = map[string]time.Duration{}
		m0, m1  runtime.MemStats
	)
	if traced {
		runtime.ReadMemStats(&m0)
	}
	t1 := time.Now()
	opt := harness.Options{
		Warmup:      s.warmup,
		Measure:     s.measure,
		Parallelism: procs,
		Traces:      cache,
		Progress: func(ev harness.CellEvent) {
			at := time.Since(t1)
			key := ev.Config + "/" + ev.Workload
			mu.Lock()
			defer mu.Unlock()
			switch ev.Type {
			case harness.CellStarted:
				started[key] = at
			case harness.CellFinished:
				// Every cell is issued when the sweep starts.
				o := op{lat: at}
				o.stages[stageQueue] = started[key]
				o.stages[stageRun] = at - started[key]
				r.ops = append(r.ops, o)
				if traced {
					r.cellMS = append(r.cellMS, ms(ev.Duration))
				}
			}
		},
	}
	res, err := harness.RunSuiteCtx(ctx, s.specs, s.cfgs, opt)
	r.wall = time.Since(t1)
	if traced {
		runtime.ReadMemStats(&m1)
		r.allocs, r.allocBytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	}
	if err != nil {
		if ctx.Err() != nil {
			return r, nil, ctx.Err()
		}
		// The failed cells count as failed ops; the fingerprint of the
		// incomplete sweep then fails the rest of the rep.
		r.failed = len(res.Failed)
		return r, res, nil
	}
	return r, res, res.Validate()
}

// fingerprint hashes a sweep's metrics export.
func fingerprint(s *harness.SuiteResults) (string, error) {
	var b bytes.Buffer
	if err := harness.WriteMetricsJSON(&b, s.Metrics()); err != nil {
		return "", err
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// checkPinnedBench reruns the 28-cell sweep cmd/bench is pinned to and
// compares its fingerprint, tying this benchmark to that history.
func checkPinnedBench(ctx context.Context) (string, error) {
	opt := harness.PinnedBenchOptions()
	opt.Parallelism = procs
	s, err := harness.RunSuiteCtx(ctx, harness.PinnedBenchSpecs(), harness.PinnedBenchConfigurations(), opt)
	if err != nil {
		return "", err
	}
	return fingerprint(s)
}
