package server_test

import (
	"context"
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"entangling/internal/client"
	"entangling/internal/faultinject"
	"entangling/internal/server"
)

// Small windows keep every mixed-traffic cell in the low milliseconds.
const (
	mixWarmup  = 20_000
	mixMeasure = 10_000
	mixRounds  = 2
)

// mixLane is one tenant driving the node: its SDK client, its index
// among the lanes, and the outcomes it observed.
type mixLane struct {
	name  string
	cl    *client.Client
	index int

	mu       sync.Mutex
	admitted int // submissions that created a job (not deduped)
	canceled int // cancel ops, each on a job only this lane owns
}

func (ln *mixLane) submitted(sub client.SubmitResponse) {
	if !sub.Deduped {
		ln.mu.Lock()
		ln.admitted++
		ln.mu.Unlock()
	}
}

// mixOp is one operation of the mix; it returns an error when the op
// did not end in its expected terminal state.
type mixOp func(ctx context.Context, ln *mixLane, round int) error

// waitState submits req, waits for its result and checks its state.
func waitState(ctx context.Context, ln *mixLane, req server.JobRequest, want string) (client.SubmitResponse, server.ResultDoc, error) {
	sub, err := ln.cl.Submit(ctx, req)
	if err != nil {
		return sub, server.ResultDoc{}, err
	}
	ln.submitted(sub)
	doc, _, err := ln.cl.WaitResult(ctx, sub.ID)
	if err != nil {
		return sub, doc, err
	}
	if doc.State != want {
		return sub, doc, fmt.Errorf("job %s ended %s, want %s (%+v)", sub.ID, doc.State, want, doc.Cells)
	}
	return sub, doc, nil
}

// The five op kinds of the mix. Each lane offsets the warmup of its
// unique jobs so no two ops share a cell unless they mean to.
func mixOps(trace []byte) map[string]mixOp {
	unique := func(ln *mixLane, round, kind int) uint64 {
		return mixWarmup + 1 + uint64(kind*100+round*10+ln.index)
	}
	return map[string]mixOp{
		// The same job from every lane and round: a resubmission
		// must dedupe onto the job the first submission joined.
		"dedupe": func(ctx context.Context, ln *mixLane, round int) error {
			req := server.JobRequest{Configurations: []string{"no", "nextline"}, Workloads: []string{"crypto-00"}, Warmup: mixWarmup, Measure: mixMeasure}
			first, _, err := waitState(ctx, ln, req, server.StateCompleted)
			if err != nil {
				return err
			}
			again, _, err := waitState(ctx, ln, req, server.StateCompleted)
			if err != nil {
				return err
			}
			if !again.Deduped || again.ID != first.ID {
				return fmt.Errorf("resubmission %+v did not dedupe onto %s", again, first.ID)
			}
			return nil
		},
		// Fresh cells: every one is simulated by this job.
		"cold": func(ctx context.Context, ln *mixLane, round int) error {
			req := server.JobRequest{Configurations: []string{"no", "entangling-2k"}, Workloads: []string{"int-00"}, Warmup: unique(ln, round, 1), Measure: mixMeasure}
			sub, doc, err := waitState(ctx, ln, req, server.StateCompleted)
			if err != nil {
				return err
			}
			if sub.Deduped || doc.Cells.Simulated != doc.Cells.Total {
				return fmt.Errorf("cold job %s: deduped=%v, %d of %d cells simulated", sub.ID, sub.Deduped, doc.Cells.Simulated, doc.Cells.Total)
			}
			return nil
		},
		// Upload a trace (later uploads dedupe) and sweep it.
		"trace": func(ctx context.Context, ln *mixLane, round int) error {
			doc, err := ln.cl.UploadTrace(ctx, trace, "")
			if err != nil {
				return err
			}
			req := server.JobRequest{Configurations: []string{"no", "entangling-2k"}, Workloads: []string{doc.Workload}, Warmup: mixWarmup, Measure: mixMeasure}
			_, _, err = waitState(ctx, ln, req, server.StateCompleted)
			return err
		},
		// The node's fault hook fails every fp-00 cell.
		"faults": func(ctx context.Context, ln *mixLane, round int) error {
			req := server.JobRequest{Configurations: []string{"no"}, Workloads: []string{"fp-00"}, Warmup: unique(ln, round, 2), Measure: mixMeasure}
			_, doc, err := waitState(ctx, ln, req, server.StateFailed)
			if err != nil {
				return err
			}
			if len(doc.FailedCells) != 1 || !strings.Contains(doc.FailedCells[0].Error, "injected error") {
				return fmt.Errorf("fault job failures %+v, want one injected error", doc.FailedCells)
			}
			return nil
		},
		// A job long enough to still be queued or running when the
		// cancel lands; its sole owner canceling it cancels it.
		"cancel": func(ctx context.Context, ln *mixLane, round int) error {
			req := server.JobRequest{Configurations: []string{"no", "nextline"}, Workloads: []string{"srv-00"}, Warmup: unique(ln, round, 3), Measure: 1_500_000}
			sub, err := ln.cl.Submit(ctx, req)
			if err != nil {
				return err
			}
			ln.submitted(sub)
			if _, err := ln.cl.Cancel(ctx, sub.ID); err != nil {
				return err
			}
			ln.mu.Lock()
			ln.canceled++
			ln.mu.Unlock()
			return nil
		},
	}
}

// metricValue reads one sample from a Prometheus exposition.
func metricValue(t *testing.T, text, series string) int {
	t.Helper()
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\d+)$`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("/metrics has no %s\n%s", series, text)
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestServerMixedTrafficDrainsClean drives a two-tenant node with all
// five op kinds at once — dedupe resubmits, cold jobs, trace upload
// then sweep, injected faults and submit-then-cancel — from two concurrent
// lanes through the client SDK. Every op must end in its expected
// terminal state, each tenant's submitted-jobs counter must equal the
// submissions that lane saw admitted, and the drain must hand back
// every goroutine (startTestServer's leak check).
func TestServerMixedTrafficDrainsClean(t *testing.T) {
	cfg := server.TenantTestConfig()
	cfg.Workers = 2
	cfg.QueueCapacity = 64
	cfg.TraceDir = filepath.Join(t.TempDir(), "traces")
	for i := range cfg.Tenants.Tenants {
		cfg.Tenants.Tenants[i].MaxJobsInFlight = 64
	}
	// fp-00 is the faults op's workload and no other op's.
	s, ts := server.StartHookedTestServer(t, cfg, server.FaultHook(faultinject.Plan{Seed: 7, CellErrorProb: 1}, "fp-00"))

	var lanes []*mixLane
	for i, l := range []struct{ name, key string }{{"acme", server.GoldKey}, {"zeta", server.BronzeKey}} {
		cl, err := client.New(client.Config{BaseURL: ts.URL, APIKey: l.key})
		if err != nil {
			t.Fatal(err)
		}
		lanes = append(lanes, &mixLane{name: l.name, cl: cl, index: i})
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ops := mixOps(server.EncodeWalkerTrace(t, mixWarmup+mixMeasure))
	var wg sync.WaitGroup
	errs := make(chan error, len(lanes)*len(ops)*mixRounds)
	for _, ln := range lanes {
		for kind, op := range ops {
			for round := 0; round < mixRounds; round++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if err := op(ctx, ln, round); err != nil {
						errs <- fmt.Errorf("%s %s round %d: %w", ln.name, kind, round, err)
					}
				}()
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		return
	}

	// Canceled jobs that were already running finish canceling once
	// their cells abort.
	wantCanceled := 0
	for _, ln := range lanes {
		wantCanceled += ln.canceled
	}
	var text string
	for {
		var err error
		if text, err = lanes[0].cl.Metrics(ctx); err != nil {
			t.Fatalf("metrics: %v", err)
		}
		if metricValue(t, text, "entangling_jobs_canceled_total") >= wantCanceled {
			break
		}
		select {
		case <-ctx.Done():
			t.Fatalf("canceled jobs never finished canceling\n%s", text)
		case <-time.After(20 * time.Millisecond):
		}
	}
	if got := metricValue(t, text, "entangling_jobs_canceled_total"); got != wantCanceled {
		t.Errorf("entangling_jobs_canceled_total = %d, want %d", got, wantCanceled)
	}
	if got := metricValue(t, text, "entangling_jobs_degraded_total"); got != 0 {
		t.Errorf("entangling_jobs_degraded_total = %d, want 0", got)
	}
	for _, ln := range lanes {
		series := fmt.Sprintf("entangling_tenant_jobs_submitted_total{tenant=%q}", ln.name)
		if got := metricValue(t, text, series); got != ln.admitted {
			t.Errorf("%s = %d, want the %d submissions %s saw admitted", series, got, ln.admitted, ln.name)
		}
	}
	t.Logf("admitted jobs: acme %d, zeta %d; canceled %d", lanes[0].admitted, lanes[1].admitted, wantCanceled)
	s.Drain()
}
