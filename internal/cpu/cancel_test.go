package cpu

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"entangling/internal/cache"
	"entangling/internal/prefetch"
	"entangling/internal/trace"
)

// cancelTrace packs and presolves a mixed stream six chunks long.
func cancelTrace(t *testing.T) *Presolved {
	t.Helper()
	p := mustPack(t, mixedStream(6*cancelCheckInterval+321))
	pre, err := Presolve(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

// canceler is a prefetcher that issues nothing, cancels the run's
// context at its at-th L1I access and counts the accesses after it.
type canceler struct {
	prefetch.Base
	at, seen int
	cancel   context.CancelFunc
	// m is the machine it sits in; chunk is m's first instruction of
	// the chunk in flight at the cancel.
	m     *Machine
	chunk uint64
}

func (c *canceler) OnAccess(cache.AccessEvent) {
	if c.seen++; c.seen == c.at {
		c.cancel()
		c.chunk = c.m.instrIdx
	}
}

// after returns how many accesses followed the cancel.
func (c *canceler) after() int { return c.seen - c.at }

// cancelAt returns a machine that cancels its run's context at its
// at-th L1I access, the prefetcher that does it, and the context.
func cancelAt(at int) (*Machine, *canceler, context.Context) {
	ctx, cancel := context.WithCancel(context.Background())
	c := &canceler{Base: prefetch.Base{PfName: "canceler"}, at: at, cancel: cancel}
	cfg := DefaultConfig()
	cfg.Prefetcher = func(prefetch.Issuer) prefetch.Prefetcher { return c }
	c.m = New(cfg)
	return c.m, c, ctx
}

// checkCanceled asserts that a run canceled from its prefetcher
// returned the context's error and stopped at the first poll after the
// cancel: at the end of the chunk in flight, before the trace ends,
// with at most one chunk's worth of accesses (one per instruction at
// most) after the cancel.
func checkCanceled(t *testing.T, ctx context.Context, m *Machine, c *canceler, err error) {
	t.Helper()
	if !errors.Is(err, context.Canceled) || err != ctx.Err() {
		t.Fatalf("err = %v, want the context's %v", err, ctx.Err())
	}
	if c.seen < c.at {
		t.Fatalf("the run ended after %d accesses, before the cancel at %d", c.seen, c.at)
	}
	if c.after() > cancelCheckInterval {
		t.Errorf("%d accesses followed the cancel, more than one chunk of %d instructions", c.after(), cancelCheckInterval)
	}
	if want := (c.chunk/cancelCheckInterval + 1) * cancelCheckInterval; m.instrIdx != want || want >= uint64(m.presolved.p.Len()) {
		t.Errorf("the run stopped at instruction %d, want %d, the end of the chunk in flight inside the %d-record trace", m.instrIdx, want, m.presolved.p.Len())
	}
}

func TestRunWindowsCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(DefaultConfig())
	_, err := m.RunPresolvedCtx(ctx, cancelTrace(t), 1<<20, 1<<20)
	if err == nil {
		t.Fatal("pre-canceled run returned no error")
	}
	if err != ctx.Err() {
		t.Errorf("err = %v, want %v", err, ctx.Err())
	}
	if m.instrIdx != 0 {
		t.Errorf("a pre-canceled run consumed %d instructions", m.instrIdx)
	}
}

// TestRunWindowsCtxCancelsInfiniteRun: a cancel during the measurement
// window of a run that asks for far more than the trace holds stops
// the run with the context's error instead of its results.
func TestRunWindowsCtxCancelsInfiniteRun(t *testing.T) {
	pre := cancelTrace(t)
	const warmup = cancelCheckInterval + 100
	// Find the access count the warmup ends at, then cancel a little
	// into the measurement window.
	m, c, ctx := cancelAt(-1)
	if _, err := m.RunPresolvedCtx(ctx, pre, warmup, 0); err != nil {
		t.Fatal(err)
	}
	m, c, ctx = cancelAt(c.seen + 500)
	_, err := m.RunPresolvedCtx(ctx, pre, warmup, 1<<62)
	checkCanceled(t, ctx, m, c, err)
	if m.instrIdx <= warmup {
		t.Errorf("the run stopped at instruction %d, inside the %d-instruction warmup", m.instrIdx, warmup)
	}
}

// TestRunWindowsCtxBackgroundMatchesRunWindows: under an uncancellable
// context a replay must be bit-identical to RunWindows over a record
// source of the same records.
func TestRunWindowsCtxBackgroundMatchesRunWindows(t *testing.T) {
	const warmup, measure = 50_000, 30_000
	pre := cancelTrace(t)
	plain := New(DefaultConfig()).RunWindows(trace.NewPackedSource(pre.p), warmup, measure)
	viaCtx, err := New(DefaultConfig()).RunPresolvedCtx(context.Background(), pre, warmup, measure)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, viaCtx) {
		t.Errorf("ctx run diverged from plain run:\nplain %+v\nctx   %+v", plain, viaCtx)
	}
}

// TestRunWindowsCtxPartialConsumption: a run canceled mid-warmup must
// not consume the rest of the trace — the loop really does stop at the
// next poll instead of finishing the window first.
func TestRunWindowsCtxPartialConsumption(t *testing.T) {
	pre := cancelTrace(t)
	for _, at := range []int{1, 777, 2000} {
		m, c, ctx := cancelAt(at)
		_, err := m.RunPresolvedCtx(ctx, pre, 1<<62, 1)
		checkCanceled(t, ctx, m, c, err)
	}
}
