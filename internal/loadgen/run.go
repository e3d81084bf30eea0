package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"entangling/internal/client"
	"entangling/internal/faultinject"
	"entangling/internal/server"
	"entangling/internal/stats"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

// Options assembles a replay.
type Options struct {
	// BaseURL locates the node under load.
	BaseURL string
	// Plan is the load description (validated before replay).
	Plan Plan
	// Retries is the SDK transport-retry budget (default 2 — a load
	// generator should surface flakiness, not paper over it).
	Retries int
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
}

// lane is one submitting identity: a tenant (or the anonymous open-
// mode lane) with its own SDK client.
type lane struct {
	name string
	cl   *client.Client
}

// collector aggregates outcomes across all submitter goroutines.
type collector struct {
	mu             sync.Mutex
	ops            map[string]uint64
	states         map[string]uint64
	errs           map[string]uint64
	perTenant      map[string]*TenantOutcome
	deduped        uint64
	tracesUploaded uint64
	tracesDeduped  uint64
	cellsDone      uint64
	cellsSimulated uint64
	submitMS       []float64
	e2eMS          []float64
}

func (c *collector) op(tenant, kind string) {
	c.mu.Lock()
	c.ops[kind]++
	t := c.perTenant[tenant]
	if t == nil {
		t = &TenantOutcome{Errors: map[string]uint64{}}
		c.perTenant[tenant] = t
	}
	t.Ops++
	c.mu.Unlock()
}

func (c *collector) fail(tenant, reason string) {
	c.mu.Lock()
	c.errs[reason]++
	c.perTenant[tenant].Errors[reason]++
	c.mu.Unlock()
}

// classify maps an SDK error onto the taxonomy: the server's
// machine-readable reason when it answered, "transport" when the
// connection itself failed.
func classify(err error) string {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		if apiErr.Reason != "" {
			return apiErr.Reason
		}
		return fmt.Sprintf("http_%d", apiErr.Status)
	}
	return "transport"
}

// Run replays the plan against the node and reduces the outcomes into
// a Report. The error return covers setup problems (invalid plan,
// unreachable node); per-operation rejections are data, recorded in
// the report's taxonomy, never an error.
func Run(ctx context.Context, opt Options) (*Report, error) {
	if err := opt.Plan.Validate(); err != nil {
		return nil, err
	}
	plan := opt.Plan.withDefaults()
	if opt.Logf == nil {
		opt.Logf = func(string, ...any) {}
	}
	if opt.Retries <= 0 {
		opt.Retries = 2
	}

	lanes, err := buildLanes(opt, plan)
	if err != nil {
		return nil, err
	}
	if err := lanes[0].cl.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("loadgen: node %s not healthy: %w", opt.BaseURL, err)
	}

	col := &collector{
		ops:       map[string]uint64{},
		states:    map[string]uint64{},
		errs:      map[string]uint64{},
		perTenant: map[string]*TenantOutcome{},
	}
	traces := newTracePool(plan)

	// Submitter pool: plan.Concurrency workers per lane, each draining
	// a shared deterministic op sequence. Which worker runs which op
	// is scheduling-dependent; what each op submits is not.
	type opItem struct {
		index int
		lane  *lane
	}
	work := make(chan opItem)
	var wg sync.WaitGroup
	start := time.Now()
	opt.Logf("loadgen: replaying %d submissions over %d lanes x %d workers",
		plan.Submissions, len(lanes), plan.Concurrency)
	for range lanes {
		for w := 0; w < plan.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for it := range work {
					runOp(ctx, plan, it.lane, it.index, col, traces)
				}
			}()
		}
	}
	for i := 0; i < plan.Submissions; i++ {
		select {
		case work <- opItem{index: i, lane: lanes[i%len(lanes)]}:
		case <-ctx.Done():
			i = plan.Submissions
		}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		SchemaVersion:  ReportSchemaVersion,
		Kind:           ReportKind,
		Seed:           plan.Seed,
		Submissions:    plan.Submissions,
		ElapsedMS:      elapsed.Milliseconds(),
		Ops:            col.ops,
		States:         col.states,
		Errors:         col.errs,
		Deduped:        col.deduped,
		TracesUploaded: col.tracesUploaded,
		TracesDeduped:  col.tracesDeduped,
		CellsDone:      col.cellsDone,
		CellsSimulated: col.cellsSimulated,
		PerTenant:      col.perTenant,
	}
	if col.cellsDone > 0 {
		rep.CacheHitRate = 1 - float64(col.cellsSimulated)/float64(col.cellsDone)
	}
	rep.SubmitLatencyMS = summarize(col.submitMS)
	rep.E2ELatencyMS = summarize(col.e2eMS)
	// Empty maps serialize as {}; drop them so omitempty applies.
	if len(rep.States) == 0 {
		rep.States = nil
	}
	if len(rep.Errors) == 0 {
		rep.Errors = nil
	}
	return rep, ctx.Err()
}

// buildLanes creates one SDK client per tenant (or one anonymous
// lane).
func buildLanes(opt Options, plan Plan) ([]*lane, error) {
	mk := func(name, key string) (*lane, error) {
		cl, err := client.New(client.Config{
			BaseURL: opt.BaseURL,
			APIKey:  key,
			Retries: opt.Retries,
			HTTP:    &http.Client{},
		})
		if err != nil {
			return nil, err
		}
		return &lane{name: name, cl: cl}, nil
	}
	if len(plan.Tenants) == 0 {
		ln, err := mk("", "")
		if err != nil {
			return nil, err
		}
		return []*lane{ln}, nil
	}
	lanes := make([]*lane, 0, len(plan.Tenants))
	for _, t := range plan.Tenants {
		ln, err := mk(t.Name, t.Key)
		if err != nil {
			return nil, err
		}
		lanes = append(lanes, ln)
	}
	return lanes, nil
}

// pickKind draws the op's mix kind from the weighted plan.
func pickKind(plan Plan, r uint64) string {
	total := 0
	for _, m := range plan.Mix {
		total += m.Weight
	}
	n := int(r % uint64(total))
	for _, m := range plan.Mix {
		if n < m.Weight {
			return m.Kind
		}
		n -= m.Weight
	}
	return plan.Mix[len(plan.Mix)-1].Kind
}

// runOp executes operation i of the plan on the given lane. Every
// random choice chains from SplitMix64(seed, i), so the submitted
// work is identical across replays regardless of goroutine schedule.
func runOp(ctx context.Context, plan Plan, ln *lane, i int, col *collector, traces *tracePool) {
	r0 := stats.SplitMix64(plan.Seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15)
	kind := pickKind(plan, r0)
	r1 := stats.SplitMix64(r0)
	col.op(ln.name, kind)

	switch kind {
	case KindTraceUpload:
		payload := traces.payload(r1)
		startAt := time.Now()
		doc, err := ln.cl.UploadTrace(ctx, payload, "")
		if err != nil {
			col.fail(ln.name, classify(err))
			return
		}
		col.mu.Lock()
		col.submitMS = append(col.submitMS, float64(time.Since(startAt).Microseconds())/1000)
		if doc.Deduped {
			col.tracesDeduped++
		} else {
			col.tracesUploaded++
		}
		col.mu.Unlock()
		return
	case KindCancelMid:
		req := jobShape(plan, KindCancelMid, r1, i)
		startAt := time.Now()
		sub, err := ln.cl.Submit(ctx, req)
		if err != nil {
			col.fail(ln.name, classify(err))
			return
		}
		submitMS := float64(time.Since(startAt).Microseconds()) / 1000
		// Canceling drops this lane's ownership of the job, so any
		// follow-up poll would (correctly) be forbidden; the cancel
		// response itself carries the job's final status for us.
		doc, err := ln.cl.Cancel(ctx, sub.ID)
		if err != nil {
			col.fail(ln.name, classify(err))
			return
		}
		col.mu.Lock()
		col.submitMS = append(col.submitMS, submitMS)
		col.e2eMS = append(col.e2eMS, float64(time.Since(startAt).Microseconds())/1000)
		col.states[doc.State]++
		if sub.Deduped {
			col.deduped++
		}
		col.mu.Unlock()
		return
	}

	// Submission kinds that wait for the full result.
	req := jobShape(plan, kind, r1, i)
	startAt := time.Now()
	sub, err := ln.cl.Submit(ctx, req)
	if err != nil {
		col.fail(ln.name, classify(err))
		return
	}
	submitMS := float64(time.Since(startAt).Microseconds()) / 1000
	doc, _, err := ln.cl.WaitResult(ctx, sub.ID)
	if err != nil {
		col.fail(ln.name, classify(err))
		return
	}
	col.mu.Lock()
	col.submitMS = append(col.submitMS, submitMS)
	col.e2eMS = append(col.e2eMS, float64(time.Since(startAt).Microseconds())/1000)
	col.states[doc.State]++
	if sub.Deduped {
		col.deduped++
	}
	ok := uint64(doc.Cells.Done - doc.Cells.Failed)
	col.cellsDone += ok
	col.cellsSimulated += uint64(doc.Cells.Simulated)
	col.mu.Unlock()
}

// jobShape derives op i's job request. dedup-heavy draws from a pool
// of 4 recurring shapes; cache-cold perturbs the warmup window per op
// so every submission mints fresh cell fingerprints; fault-plan
// attaches a deterministic transient-fault plan; cancel-mid-job uses
// a disjoint unique-warmup space so cancels never race a measured
// job's cells.
func jobShape(plan Plan, kind string, r uint64, i int) server.JobRequest {
	cfg := plan.Configurations[r%uint64(len(plan.Configurations))]
	wl := plan.Workloads[stats.SplitMix64(r)%uint64(len(plan.Workloads))]
	req := server.JobRequest{
		Configurations: []string{cfg},
		Workloads:      []string{wl},
		Warmup:         plan.Warmup,
		Measure:        plan.Measure,
	}
	switch kind {
	case KindDedupHeavy:
		// The pool's cell sets nest: shape p sweeps the first 1+p
		// configurations against the first workload, so replays hit
		// both the job-level dedupe (identical shapes re-join the same
		// job) and the cell-level result cache (a larger shape's
		// prefix cells were already resolved by a smaller one).
		p := r % 4
		n := 1 + int(p)%len(plan.Configurations)
		req.Configurations = append([]string(nil), plan.Configurations[:n]...)
		req.Workloads = []string{plan.Workloads[0]}
	case KindCacheCold:
		req.Warmup = plan.Warmup + 1 + uint64(i)
	case KindCancelMid:
		req.Warmup = plan.Warmup + 1_000_000 + uint64(i)
	case KindFaultPlan:
		req.FaultPlan = &faultinject.Plan{
			Seed:          (r % 2) + 1,
			CellErrorProb: 0.5,
		}
	}
	return req
}

// tracePool synthesizes (and memoizes) the small ENTRACE1 payloads
// the trace-upload lane ingests: a fixed pool of 3 seeds, so replays
// mix fresh uploads with server-side dedup hits.
type tracePool struct {
	plan Plan
	mu   sync.Mutex
	mem  map[uint64][]byte
}

func newTracePool(plan Plan) *tracePool {
	return &tracePool{plan: plan, mem: map[uint64][]byte{}}
}

func (tp *tracePool) payload(r uint64) []byte {
	seed := 0xBEEF + r%3
	tp.mu.Lock()
	defer tp.mu.Unlock()
	if b, ok := tp.mem[seed]; ok {
		return b
	}
	p := workload.Preset(workload.Int)
	p.Name = fmt.Sprintf("loadgen-%d", seed)
	p.Seed = seed
	tr, err := workload.Materialize(workload.Spec{Name: p.Name, Params: p}, tp.plan.TraceInstructions)
	if err != nil {
		panic(fmt.Sprintf("loadgen: materializing synthetic trace: %v", err))
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, false)
	if err != nil {
		panic(fmt.Sprintf("loadgen: encoding synthetic trace: %v", err))
	}
	for j := range tr.Instrs {
		if err := w.Write(&tr.Instrs[j]); err != nil {
			panic(fmt.Sprintf("loadgen: encoding synthetic trace: %v", err))
		}
	}
	w.Close()
	tp.mem[seed] = buf.Bytes()
	return tp.mem[seed]
}
