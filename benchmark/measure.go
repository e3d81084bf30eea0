package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// minSamples is the fewest samples a run measures: enough for a p90
// with minTail samples beyond it.
const minSamples = 100

// The consecutive stages of an op. A sweep cell has no submit or
// fetch stage: the harness hands it to a worker in-process.
const (
	stageSubmit = iota // the submission round trip
	stageQueue         // accepted to started
	stageRun           // started to done
	stageFetch         // done to the result in hand
	numStages
)

// op is one measured operation: a sweep cell or a job. It is timed from
// when it was issued to when its result was in hand (lat), and its
// stages split lat exactly.
type op struct {
	issued time.Duration // offset from the start of the rep's measured part
	lat    time.Duration
	stages [numStages]time.Duration
}

// started is the op's offset from the start of the measured part when
// its run stage began.
func (o op) started() time.Duration {
	return o.issued + o.stages[stageSubmit] + o.stages[stageQueue]
}

// serverCounts are the server-side outcomes a rep observed.
type serverCounts struct {
	jobs, deduped                  int // jobs submitted; submissions that joined an existing job
	cells                          int // successful cells of jobs that were not deduped
	simulated, cacheMemory, shared int
}

// rep is one repetition of a workload. Its times are at reference
// speed (see hostspeed.go) once measureReps has scaled them.
type rep struct {
	traced bool
	setup  time.Duration // set-up paid before the measured part
	wall   time.Duration // the measured part
	ops    []op
	failed int     // ops that failed or returned a wrong answer
	rssMB  float64 // peak resident set size during the rep
	// probes are the reference kernel's times before the set-up, between
	// set-up and measured part, and after the measured part.
	probes [3]time.Duration

	// Filled on traced reps only.
	allocs, allocBytes uint64
	cellMS             []float64 // host time of each simulated cell
	counts             serverCounts
}

// endSetup ends the rep's set-up, begun at start, and probes the host's
// speed before the measured part begins.
func (r *rep) endSetup(start time.Time) error {
	r.setup = time.Since(start)
	var err error
	r.probes[1], err = probe()
	return err
}

// rescale brings the rep's times to reference speed: the set-up by the
// probes around it, the measured part by the probes around that.
func (r *rep) rescale() {
	by := func(d time.Duration, f float64) time.Duration { return time.Duration(float64(d) * f) }
	f := speedScale(r.probes[0], r.probes[1])
	r.setup = by(r.setup, f)
	f = speedScale(r.probes[1], r.probes[2])
	r.wall = by(r.wall, f)
	for i := range r.ops {
		o := &r.ops[i]
		o.issued, o.lat = by(o.issued, f), by(o.lat, f)
		for s := range o.stages {
			o.stages[s] = by(o.stages[s], f)
		}
	}
	for i := range r.cellMS {
		r.cellMS[i] *= f
	}
}

// measureReps runs reps until p.seconds have elapsed, at least two reps
// ran and at least minSamples ops were measured: all ops in an untraced
// run, those of traced reps in a traced one. In a traced run
// every second rep is traced, so the tracing overhead is measured in the
// same process on the same inputs.
func measureReps(ctx context.Context, p params, do func(ctx context.Context, i int, traced bool) (rep, error)) ([]rep, error) {
	var reps []rep
	samples := 0
	start := time.Now()
	for i := 0; i < 2 || samples < minSamples || time.Since(start).Seconds() < p.seconds; i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Each rep starts cold, like a fresh process: the previous rep's
		// garbage is collected and its memory returned to the system,
		// and the peak resident set is reset to the current one.
		debug.FreeOSMemory()
		if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
			return nil, fmt.Errorf("resetting the peak resident set: %w", err)
		}
		traced := p.trace && i%2 == 1
		before, err := probe()
		if err != nil {
			return nil, err
		}
		r, err := do(ctx, i, traced)
		if err != nil {
			return nil, err
		}
		if r.rssMB, err = peakRSSMB(); err != nil {
			return nil, err
		}
		r.probes[0] = before
		if r.probes[2], err = probe(); err != nil {
			return nil, err
		}
		r.rescale()
		if len(r.ops)+r.failed == 0 {
			return nil, errors.New("a repetition measured no operations")
		}
		r.traced = traced
		reps = append(reps, r)
		if traced || !p.trace {
			samples += len(r.ops) + r.failed
		}
	}
	return reps, nil
}

// endToEnd computes the end-to-end metrics over every rep. ops_per_s
// divides all reps' ops by all their measured time: on a host whose
// speed drifts, this varied less from run to run than the median of
// the reps' rates.
func endToEnd(reps []rep) ([]metric, error) {
	var setup, rss, lat []float64
	var wall time.Duration
	ops := 0
	for _, r := range reps {
		setup = append(setup, r.setup.Seconds())
		rss = append(rss, r.rssMB)
		wall += r.wall
		ops += len(r.ops)
		for _, o := range r.ops {
			lat = append(lat, ms(o.lat))
		}
	}
	sort.Float64s(lat)
	p50, ok50 := quantile(lat, 0.50)
	p90, ok90 := quantile(lat, 0.90)
	if !ok50 || !ok90 {
		return nil, errTooFewSamples(len(lat))
	}
	return []metric{
		{name: "setup_s", unit: "s", value: median(setup), n: len(setup)},
		{name: "peak_rss_mb", unit: "MB", value: median(rss), n: len(rss)},
		{name: "ops_per_s", unit: "1/s", value: ratio(float64(ops), wall.Seconds()), n: ops},
		{name: "op_p50_ms", unit: "ms", value: p50, n: len(lat)},
		{name: "op_p90_ms", unit: "ms", value: p90, n: len(lat)},
	}, nil
}

// opLayers computes the per-layer metrics of the workload's own op path
// (the harness for sweeps, client and server for serving) from its
// traced reps, plus the tracing overhead against its untraced reps.
// slots is how many ops can run at once (sweep workers or clients).
func opLayers(reps []rep, slots int) ([]metric, error) {
	var (
		n                     int
		queue, run            []float64
		stageSum              [numStages]time.Duration
		latSum, busy          time.Duration
		slotTime              float64
		tails, cellMS         []float64
		allocs, bytes         uint64
		tracedWall, plainWall []float64
		counts                []serverCounts
	)
	for _, r := range reps {
		if !r.traced {
			plainWall = append(plainWall, r.wall.Seconds())
			continue
		}
		tracedWall = append(tracedWall, r.wall.Seconds())
		n += len(r.ops)
		allocs += r.allocs
		bytes += r.allocBytes
		slotTime += r.wall.Seconds() * float64(slots)
		var lastStart time.Duration
		for _, o := range r.ops {
			queue = append(queue, ms(o.stages[stageQueue]))
			run = append(run, ms(o.stages[stageRun]))
			for s, d := range o.stages {
				stageSum[s] += d
			}
			latSum += o.lat
			busy += o.stages[stageRun]
			lastStart = max(lastStart, o.started())
		}
		tails = append(tails, (r.wall - lastStart).Seconds())
		cellMS = append(cellMS, r.cellMS...)
		counts = append(counts, r.counts)
	}
	sort.Float64s(queue)
	sort.Float64s(run)
	var q [4]float64 // queue p50, queue p90, run p50, run p90
	for k, v := range [][]float64{queue, queue, run, run} {
		x, ok := quantile(v, []float64{0.5, 0.9}[k%2])
		if !ok {
			return nil, errTooFewSamples(len(v))
		}
		q[k] = x
	}
	perRep := func(f func(serverCounts) float64) float64 {
		var v []float64
		for _, c := range counts {
			v = append(v, f(c))
		}
		return median(v)
	}
	return []metric{
		{name: "op.queue_p50_ms", unit: "ms", value: q[0], n: n},
		{name: "op.queue_p90_ms", unit: "ms", value: q[1], n: n},
		{name: "op.run_p50_ms", unit: "ms", value: q[2], n: n},
		{name: "op.run_p90_ms", unit: "ms", value: q[3], n: n},
		{name: "op.submit_share", unit: "ratio", value: ratio(float64(stageSum[stageSubmit]), float64(latSum)), n: n},
		{name: "op.fetch_share", unit: "ratio", value: ratio(float64(stageSum[stageFetch]), float64(latSum)), n: n},
		{name: "op.worker_util", unit: "ratio", value: ratio(busy.Seconds(), slotTime), n: n},
		{name: "op.tail_s", unit: "s", value: median(tails), n: len(tails)},
		{name: "op.allocs_per_op", unit: "count", value: ratio(float64(allocs), float64(n)), n: n},
		{name: "op.alloc_bytes_per_op", unit: "B", value: ratio(float64(bytes), float64(n)), n: n},
		{name: "sim.cell_ms", unit: "ms", value: mean(cellMS), n: len(cellMS)},
		{name: "server.cells_simulated", unit: "count", value: perRep(func(c serverCounts) float64 { return float64(c.simulated) }), n: len(counts)},
		{name: "server.cells_cache_memory", unit: "count", value: perRep(func(c serverCounts) float64 { return float64(c.cacheMemory) }), n: len(counts)},
		{name: "server.cells_shared", unit: "count", value: perRep(func(c serverCounts) float64 { return float64(c.shared) }), n: len(counts)},
		{name: "server.cache_hit_ratio", unit: "ratio", value: perRep(func(c serverCounts) float64 { return ratio(float64(c.cacheMemory), float64(c.cells)) }), n: len(counts)},
		{name: "server.jobs_deduped_ratio", unit: "ratio", value: perRep(func(c serverCounts) float64 { return ratio(float64(c.deduped), float64(c.jobs)) }), n: len(counts)},
		{name: "tracing.overhead_frac", unit: "ratio", value: ratio(median(tracedWall), median(plainWall)) - 1, n: len(tracedWall) + len(plainWall)},
	}, nil
}

// quantile returns the nearest-rank q-quantile of sorted, refusing (ok
// false) unless at least minTail samples lie beyond it.
func quantile(sorted []float64, q float64) (float64, bool) {
	rank := max(int(math.Ceil(q*float64(len(sorted)))), 1)
	if len(sorted)-rank < minTail {
		return 0, false
	}
	return sorted[rank-1], true
}

type errTooFewSamples int

func (e errTooFewSamples) Error() string {
	return fmt.Sprintf("only %d samples; a percentile needs %d beyond it", int(e), minTail)
}

// median returns the middle value (the mean of the two middle values
// for an even count), or 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(v []float64) float64 {
	var sum float64
	for _, x := range v {
		sum += x
	}
	return ratio(sum, float64(len(v)))
}

// ratio is a/b, or 0 when b is 0 (the layer did no such work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MiB
// since it was last reset.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			return kb / 1024, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("/proc/self/status has no VmHWM line")
}
