package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"entangling/internal/core"
	"entangling/internal/harness"
	"entangling/internal/server"
	"entangling/internal/workload"
)

// shortTrace is a trace long enough for every prefetcher to issue.
func shortTrace(t *testing.T) (workload.Spec, *workload.Trace, uint64, uint64) {
	t.Helper()
	spec := workload.CVPSuite(1)[3] // srv-00: the highest L1I miss rate
	const warmup, measure = 20_000, 10_000
	tr, err := workload.Materialize(spec, warmup+measure)
	if err != nil {
		t.Fatal(err)
	}
	return spec, tr, warmup, measure
}

func TestFamiliesCoverThePaperLineup(t *testing.T) {
	for _, c := range harness.StandardConfigurations() {
		if c.Prefetcher == "" {
			continue
		}
		covered := false
		for _, f := range families {
			covered = covered || f.prefetcher == c.Prefetcher || strings.HasPrefix(c.Prefetcher, f.name+"-")
		}
		if !covered {
			t.Errorf("configuration %s: prefetcher %s belongs to no family", c.Name, c.Prefetcher)
		}
	}
}

// The counting wrappers must leave the simulation untouched: the ladder's
// machines give exactly the results the harness gives for the same
// configuration, down to the Entangling prefetcher's own statistics,
// which count the lifecycle feedback the wrapper forwards.
func TestPrefetchWrapperIsTransparent(t *testing.T) {
	spec, tr, warmup, measure := shortTrace(t)
	for _, f := range families {
		want, err := harness.RunTrace(harness.Configuration{Name: f.prefetcher, Prefetcher: f.prefetcher}, spec, tr, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		var n hookCounts
		m := ladderMachine(false, countingFactory(f.prefetcher, &n))
		got := m.RunWindows(tr.Source(), warmup, measure)
		if !reflect.DeepEqual(got, want.R) {
			t.Errorf("%s: results through the wrapper differ:\n got %+v\nwant %+v", f.name, got, want.R)
		}
		if want.Ent != nil {
			ent, ok := m.Prefetcher().(*countingPrefetcher).pf.(*core.Entangling)
			if !ok || !reflect.DeepEqual(ent.Stats(), *want.Ent) {
				t.Errorf("%s: Entangling statistics through the wrapper differ from %+v", f.name, *want.Ent)
			}
		}
		if n.hooks == 0 || (f.name != "no" && n.issued == 0) {
			t.Errorf("%s: wrapper counted %+v", f.name, n)
		}
	}
	want, err := harness.RunTrace(harness.Configuration{Name: "ideal", IdealL1I: true}, spec, tr, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	var n hookCounts
	if got := ladderMachine(true, countingFactory("no", &n)).RunWindows(tr.Source(), warmup, measure); !reflect.DeepEqual(got, want.R) {
		t.Errorf("ideal L1I: results through the wrapper differ:\n got %+v\nwant %+v", got, want.R)
	}
}

func TestLadderStepsSumToTotal(t *testing.T) {
	_, tr, warmup, measure := shortTrace(t)
	l, err := runLadder(context.Background(), []*workload.Trace{tr}, warmup, measure, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, s := range l.layers(l.time) {
		sum += s.ns
	}
	total := l.perInstr(l.time, stepFamilies)
	if math.Abs(sum-total) > 1e-9*total {
		t.Errorf("layers sum to %v ns/instr, total is %v", sum, total)
	}
	if l.instrs != uint64(len(tr.Instrs)) || l.branches == 0 || l.dataAccesses == 0 || l.hooks[0].hooks == 0 {
		t.Errorf("one pass counted %d instructions of %d, %d branches, %d data accesses, %+v hooks under no",
			l.instrs, len(tr.Instrs), l.branches, l.dataAccesses, l.hooks[0])
	}
	// The two halves of the rounds time the same passes over the same
	// trace, so they must agree up to the host's noise, allowed here a
	// factor of two.
	for s := range l.time {
		a, b := l.half[0][s], l.half[1][s]
		if a <= 0 || b <= 0 || a > 2*b || b > 2*a {
			t.Errorf("step %d: the halves of the rounds took %v and %v per pass", s, a, b)
		}
	}
}

func TestJobStagesSumToLatency(t *testing.T) {
	n, err := startNode()
	if err != nil {
		t.Fatal(err)
	}
	defer n.stop()
	req := server.JobRequest{Configurations: []string{"no", "nextline"}, Workloads: []string{"int-00"}, Warmup: 2000, Measure: 1000}
	for i := 0; i < 2; i++ { // simulated, then deduped
		o, err := runJob(context.Background(), n.clients[0], req)
		if err != nil {
			t.Fatal(err)
		}
		op := o.t.op(o.t.issued)
		var sum time.Duration
		for s, d := range op.stages {
			if d < 0 {
				t.Errorf("job %d: stage %d is %v", i, s, d)
			}
			sum += d
		}
		if sum != op.lat || op.lat <= 0 {
			t.Errorf("job %d: stages sum to %v, latency is %v", i, sum, op.lat)
		}
	}
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = float64(i + 1)
		}
		return v
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{99, 0.9, 0, false},
		{100, 0.9, 90, true},
		{19, 0.5, 0, false},
		{20, 0.5, 10, true},
		{0, 0.5, 0, false},
	} {
		got, ok := quantile(samples(c.n), c.q)
		if got != c.want || ok != c.ok {
			t.Errorf("quantile(%d samples, %v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
}

// Every workload runs at smoke scale without a failed op and prints
// exactly the metrics BENCHMARK.json declares. A traced run measures
// untraced reps too, so one run gives both kinds of metrics.
func TestSmokeRunsPrintTheDeclaredMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type declared struct{ Name, Unit string }
	var spec struct {
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	validName := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range workloads {
		p := params{seed: 1, trace: true, scale: scales["smoke"]}
		res, err := w.run(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !res.correct || res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: correct %t, %d of %d ops failed; notes %q", w.name, res.correct, res.failed, res.attempted, res.notes)
		}
		for _, traced := range []bool{false, true} {
			p.trace = traced
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			var out bytes.Buffer
			if err := res.print(&out, w.name, p); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Metrics map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s (trace %t): last line: %v", w.name, traced, err)
			}
			for name := range last.Metrics {
				if !validName.MatchString(name) {
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", w.name, name)
				}
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s (trace %t): printed %d metrics, BENCHMARK.json declares %d", w.name, traced, len(last.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := last.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s (trace %t): declared metric %s (%s) printed as %+v, present %t", w.name, traced, d.Name, d.Unit, m, ok)
				}
			}
		}
	}
}
