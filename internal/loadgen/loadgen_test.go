package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"entangling/internal/leakcheck"
	"entangling/internal/server"
)

// TestReportRoundTrip: a report written to disk re-parses into the
// identical document under the strict decoder — the LOAD_*.json
// contract CI and downstream tooling depend on.
func TestReportRoundTrip(t *testing.T) {
	rep := &Report{
		SchemaVersion:  ReportSchemaVersion,
		Kind:           ReportKind,
		Seed:           42,
		Submissions:    64,
		ElapsedMS:      1234,
		Ops:            map[string]uint64{KindDedupHeavy: 40, KindCacheCold: 24},
		States:         map[string]uint64{"completed": 60, "canceled": 4},
		Errors:         map[string]uint64{"quota_cells_per_sec": 3},
		Deduped:        17,
		TracesUploaded: 3,
		TracesDeduped:  5,
		CellsDone:      120,
		CellsSimulated: 30,
		CacheHitRate:   0.75,
		SubmitLatencyMS: LatencyStats{
			Count: 64, P50: 1.5, P90: 3.25, P99: 9, Max: 12,
		},
		E2ELatencyMS: LatencyStats{
			Count: 61, P50: 20, P90: 55, P99: 140, Max: 150,
		},
		PerTenant: map[string]*TenantOutcome{
			"acme": {Ops: 32, Errors: map[string]uint64{"quota_cells_per_sec": 3}},
			"zeta": {Ops: 32},
		},
	}
	path := t.TempDir() + "/LOAD_test.json"
	if err := rep.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := LoadReportFile(path)
	if err != nil {
		t.Fatalf("LoadReportFile: %v", err)
	}
	if !reflect.DeepEqual(got, *rep) {
		t.Fatalf("round trip changed the report:\nwrote %+v\nread  %+v", *rep, got)
	}
}

// TestReportParseRejections: the strict decoder refuses unknown
// fields, trailing data, wrong kinds/schemas and out-of-range rates.
func TestReportParseRejections(t *testing.T) {
	valid := `{"schema_version":3,"kind":"entangling-loadgen-report","seed":1,"submissions":4,` +
		`"elapsed_ms":10,"ops":{"cache-cold":4},"deduped":0,"traces_uploaded":0,"traces_deduped":0,` +
		`"cells_done":4,"cells_simulated":4,"cache_hit_rate":0,` +
		`"submit_latency_ms":{"count":4,"p50":1,"p90":1,"p99":1,"max":1},` +
		`"e2e_latency_ms":{"count":4,"p50":1,"p90":1,"p99":1,"max":1}}`
	if _, err := ParseReport(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	for name, doc := range map[string]string{
		"unknown field": strings.Replace(valid, `"seed":1`, `"seed":1,"p999":7`, 1),
		"trailing data": valid + `{"second":"doc"}`,
		"wrong schema":  strings.Replace(valid, `"schema_version":3`, `"schema_version":9`, 1),
		"old schema":    strings.Replace(valid, `"schema_version":3`, `"schema_version":2`, 1),
		"wrong kind":    strings.Replace(valid, "entangling-loadgen-report", "mystery-report", 1),
		"bad hit rate":  strings.Replace(valid, `"cache_hit_rate":0`, `"cache_hit_rate":1.5`, 1),
		"no work":       strings.Replace(valid, `"submissions":4`, `"submissions":0`, 1),
	} {
		if _, err := ParseReport(strings.NewReader(doc)); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}

// TestPlanValidation: the default plan is valid; structural mistakes
// are refused with specific errors; the strict parser refuses unknown
// fields.
func TestPlanValidation(t *testing.T) {
	if err := DefaultPlan().Validate(); err != nil {
		t.Fatalf("default plan invalid: %v", err)
	}
	mut := func(f func(*Plan)) Plan {
		p := DefaultPlan()
		f(&p)
		return p
	}
	for name, p := range map[string]Plan{
		"wrong schema":    mut(func(p *Plan) { p.SchemaVersion = 2 }),
		"no submissions":  mut(func(p *Plan) { p.Submissions = 0 }),
		"no measure":      mut(func(p *Plan) { p.Measure = 0 }),
		"no workloads":    mut(func(p *Plan) { p.Workloads = nil }),
		"no mix":          mut(func(p *Plan) { p.Mix = nil }),
		"unknown kind":    mut(func(p *Plan) { p.Mix[0].Kind = "chaos-monkey" }),
		"zero weight":     mut(func(p *Plan) { p.Mix[0].Weight = 0 }),
		"duplicate kind":  mut(func(p *Plan) { p.Mix[1].Kind = p.Mix[0].Kind }),
		"keyless tenant":  mut(func(p *Plan) { p.Tenants = []TenantLane{{Name: "a"}} }),
		"dup tenant lane": mut(func(p *Plan) { p.Tenants = []TenantLane{{Name: "a", Key: "k1"}, {Name: "a", Key: "k2"}} }),
	} {
		if err := p.Validate(); err == nil {
			t.Fatalf("%s: validated", name)
		}
	}
	if _, err := ParsePlan(strings.NewReader(`{"schema_version":1,"submissions":1,"warmupp":5}`)); err == nil {
		t.Fatalf("plan with unknown field accepted")
	}
}

// TestThresholdChecks: each regression gate fires on its own
// violation and stays silent otherwise.
func TestThresholdChecks(t *testing.T) {
	rep := Report{
		E2ELatencyMS: LatencyStats{P99: 100},
		CacheHitRate: 0.5,
		Errors:       map[string]uint64{"transport": 2},
	}
	if err := rep.Check(Thresholds{}); err != nil {
		t.Fatalf("empty thresholds must pass: %v", err)
	}
	if err := rep.Check(Thresholds{MaxE2EP99MS: 1000, MinCacheHitRate: 0.25, MaxTransportErrors: 5}); err != nil {
		t.Fatalf("satisfied thresholds must pass: %v", err)
	}
	for name, th := range map[string]Thresholds{
		"p99":       {MaxE2EP99MS: 99},
		"hit rate":  {MinCacheHitRate: 0.6},
		"transport": {FailOnTransport: true},
	} {
		if err := rep.Check(th); err == nil {
			t.Fatalf("%s gate did not fire", name)
		}
	}
}

// TestSummarizeNearestRank pins the percentile definition: nearest
// rank, no interpolation.
func TestSummarizeNearestRank(t *testing.T) {
	samples := []float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}
	got := summarize(samples)
	want := LatencyStats{Count: 10, P50: 5, P90: 9, P99: 10, Max: 10}
	if got != want {
		t.Fatalf("summarize = %+v, want %+v", got, want)
	}
	if (summarize(nil) != LatencyStats{}) {
		t.Fatalf("empty population must summarize to zeros")
	}
	one := summarize([]float64{3})
	if one.P50 != 3 || one.P99 != 3 || one.Count != 1 {
		t.Fatalf("single sample: %+v", one)
	}
}

// TestRunEndToEnd replays a small mixed plan against an in-process
// node: every operation is accounted for exactly once, no transport
// errors, and the report passes its own validation.
func TestRunEndToEnd(t *testing.T) {
	leakcheck.Check(t)
	s, err := server.New(server.Config{
		Workers:         2,
		CellParallelism: 2,
		QueueCapacity:   16,
		PerCategory:     1,
		TraceDir:        t.TempDir(),
		DrainGrace:      2 * time.Second,
		Logf:            t.Logf,
	})
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		s.Drain()
		ts.Close()
	}()

	plan := DefaultPlan()
	plan.Submissions = 24
	plan.Concurrency = 3
	plan.Warmup = 3_000
	plan.Measure = 1_000
	plan.TraceInstructions = 500
	plan.Configurations = []string{"no", "nextline"}
	plan.Workloads = []string{"crypto-00"}

	rep, err := Run(context.Background(), Options{BaseURL: ts.URL, Plan: plan, Logf: t.Logf})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatalf("report invalid: %v", err)
	}
	var total uint64
	for kind, n := range rep.Ops {
		if !knownKinds[kind] {
			t.Fatalf("report counts unknown op kind %q", kind)
		}
		total += n
	}
	if total != uint64(plan.Submissions) {
		t.Fatalf("ops sum to %d, want %d (every submission accounted once)", total, plan.Submissions)
	}
	if n := rep.Errors["transport"]; n != 0 {
		t.Fatalf("%d transport errors against a live in-process node", n)
	}
	if rep.CellsDone == 0 || rep.E2ELatencyMS.Count == 0 {
		t.Fatalf("replay did no measurable work: %+v", rep)
	}
	if rep.CacheHitRate < 0 || rep.CacheHitRate > 1 {
		t.Fatalf("cache hit rate %v outside [0,1]", rep.CacheHitRate)
	}
	if lane := rep.PerTenant[""]; lane == nil || lane.Ops != plan.Submissions {
		t.Fatalf("anonymous lane accounting wrong: %+v", rep.PerTenant)
	}
	if err := rep.Check(Thresholds{FailOnTransport: true}); err != nil {
		t.Fatalf("transport gate failed on a clean replay: %v", err)
	}

	// The same plan replayed again is deterministic in shape: the op
	// mix is identical (timing of course differs).
	rep2, err := Run(context.Background(), Options{BaseURL: ts.URL, Plan: plan})
	if err != nil {
		t.Fatalf("second Run: %v", err)
	}
	if !reflect.DeepEqual(rep.Ops, rep2.Ops) {
		t.Fatalf("op mix not deterministic across replays:\nfirst  %v\nsecond %v", rep.Ops, rep2.Ops)
	}
	// And the second replay is warmer: nothing needs simulating twice.
	if rep2.CacheHitRate < rep.CacheHitRate {
		t.Fatalf("second replay hit rate %v below first %v", rep2.CacheHitRate, rep.CacheHitRate)
	}
}

// TestRunRejectsBadSetup: an invalid plan and an unreachable node are
// setup errors, not taxonomy entries.
func TestRunRejectsBadSetup(t *testing.T) {
	bad := DefaultPlan()
	bad.Mix = nil
	if _, err := Run(context.Background(), Options{BaseURL: "http://127.0.0.1:1", Plan: bad}); err == nil {
		t.Fatalf("invalid plan accepted")
	}
	ok := DefaultPlan()
	ok.Submissions = 1
	if _, err := Run(context.Background(), Options{BaseURL: "http://127.0.0.1:1", Plan: ok, Retries: 1}); err == nil {
		t.Fatalf("unreachable node accepted")
	}
}

// TestPlanFileRoundTrip: a plan printed by -print-plan loads back
// identically.
func TestPlanFileRoundTrip(t *testing.T) {
	p := DefaultPlan()
	p.Tenants = []TenantLane{{Name: "acme", Key: "acme-key-0001"}}
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	got, err := ParsePlan(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if !reflect.DeepEqual(got, p) {
		t.Fatalf("plan round trip changed:\nwrote %+v\nread  %+v", p, got)
	}
}
