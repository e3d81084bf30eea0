package cpu

import (
	"context"
	"errors"
	"testing"

	"entangling/internal/prefetch"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

func run(t *testing.T, cat workload.Category, seed uint64, n uint64, mutate func(*Config)) Results {
	t.Helper()
	p := workload.Preset(cat)
	p.Name = string(cat)
	p.Seed = seed
	prog, err := workload.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(&cfg)
	}
	m := New(cfg)
	return m.RunWindows(workload.NewWalker(prog), 0, n)
}

func TestBaselineRunSanity(t *testing.T) {
	r := run(t, workload.Srv, 1, 200_000, nil)
	if r.Instructions != 200_000 {
		t.Fatalf("Instructions = %d", r.Instructions)
	}
	if r.Cycles == 0 || r.IPC <= 0 || r.IPC > 6 {
		t.Fatalf("implausible IPC %.3f over %d cycles", r.IPC, r.Cycles)
	}
	if r.FetchBlocks == 0 || r.L1I.Accesses != r.FetchBlocks {
		t.Errorf("fetch blocks %d vs L1I accesses %d", r.FetchBlocks, r.L1I.Accesses)
	}
	if r.L1I.Misses == 0 {
		t.Error("srv workload produced no L1I misses")
	}
	if mpki := r.L1IMPKI(); mpki < 1 {
		t.Errorf("srv baseline MPKI %.2f; paper's srv traces are far above 1", mpki)
	}
	if r.CondAccuracy < 0.6 || r.CondAccuracy > 1 {
		t.Errorf("conditional accuracy %.3f implausible", r.CondAccuracy)
	}
	if r.PrefetcherName != "no" {
		t.Errorf("prefetcher name %q", r.PrefetcherName)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := run(t, workload.Int, 3, 100_000, nil)
	b := run(t, workload.Int, 3, 100_000, nil)
	if a != b {
		t.Fatalf("nondeterministic run:\n a=%+v\n b=%+v", a, b)
	}
}

func TestCategoriesOrderByMissRate(t *testing.T) {
	srv := run(t, workload.Srv, 2, 300_000, nil)
	crypto := run(t, workload.Crypto, 2, 300_000, nil)
	if srv.L1IMPKI() <= crypto.L1IMPKI() {
		t.Errorf("srv MPKI (%.2f) should exceed crypto MPKI (%.2f)",
			srv.L1IMPKI(), crypto.L1IMPKI())
	}
}

func TestIdealL1IBeatsBaseline(t *testing.T) {
	base := run(t, workload.Srv, 4, 300_000, nil)
	ideal := run(t, workload.Srv, 4, 300_000, func(c *Config) { c.L1I.Ideal = true })
	if ideal.IPC <= base.IPC {
		t.Errorf("ideal L1I IPC %.3f not above baseline %.3f", ideal.IPC, base.IPC)
	}
	if ideal.L1I.Misses != 0 {
		t.Errorf("ideal L1I recorded %d misses", ideal.L1I.Misses)
	}
	if ideal.L2.Accesses == 0 {
		t.Error("ideal L1I sent no traffic to L2 (pollution not modelled)")
	}
}

func TestNextLineHelpsSrv(t *testing.T) {
	base := run(t, workload.Srv, 5, 300_000, nil)
	nl := run(t, workload.Srv, 5, 300_000, func(c *Config) { c.Prefetcher = prefetch.NewNextLine })
	if nl.L1I.Misses >= base.L1I.Misses {
		t.Errorf("nextline did not reduce misses: %d vs %d", nl.L1I.Misses, base.L1I.Misses)
	}
	if nl.IPC <= base.IPC*0.99 {
		t.Errorf("nextline IPC %.3f vs baseline %.3f", nl.IPC, base.IPC)
	}
	if nl.L1I.PrefetchIssued == 0 || nl.L1I.PrefetchFills == 0 {
		t.Error("nextline issued no prefetches")
	}
	if nl.PrefetcherName != "nextline" {
		t.Errorf("name %q", nl.PrefetcherName)
	}
}

func TestPhysicalAddressesRun(t *testing.T) {
	virt := run(t, workload.Int, 6, 150_000, func(c *Config) { c.Prefetcher = prefetch.NewNextLine })
	phys := run(t, workload.Int, 6, 150_000, func(c *Config) {
		c.Prefetcher = prefetch.NewNextLine
		c.PhysicalAddresses = true
		c.TranslatorSalt = 42
	})
	if phys.Instructions != virt.Instructions {
		t.Fatal("instruction counts differ")
	}
	// Physical next-line loses the cross-page contiguity, so it should
	// be no more effective than virtual.
	if phys.L1I.TimelyPrefetchHits > virt.L1I.TimelyPrefetchHits*11/10 {
		t.Errorf("physical next-line unexpectedly outperformed virtual: %d vs %d timely hits",
			phys.L1I.TimelyPrefetchHits, virt.L1I.TimelyPrefetchHits)
	}
}

// TestOnBranchFires: the prefetcher's OnBranch hook sees the run's
// branches.
func TestOnBranchFires(t *testing.T) {
	var events []prefetch.BranchEvent
	run(t, workload.Int, 7, 50_000, func(c *Config) { c.Prefetcher = recordBranches(&events) })
	if len(events) == 0 {
		t.Error("OnBranch never fired")
	}
}

func TestRedirectsCounted(t *testing.T) {
	r := run(t, workload.Srv, 8, 100_000, nil)
	if r.Redirects == 0 {
		t.Error("no redirects on a branchy workload")
	}
	if r.BTBMisses == 0 {
		t.Error("no BTB misses on a large-footprint workload")
	}
}

func TestResultsHelpers(t *testing.T) {
	r := Results{}
	if r.L1IMPKI() != 0 || r.L1IHitRate() != 0 {
		t.Error("zero-value Results helpers should be 0")
	}
	r.Instructions = 1000
	r.L1I.Misses = 5
	r.L1I.Accesses = 100
	r.L1I.Hits = 95
	if r.L1IMPKI() != 5 {
		t.Errorf("MPKI = %v", r.L1IMPKI())
	}
	if r.L1IHitRate() != 0.95 {
		t.Errorf("hit rate = %v", r.L1IHitRate())
	}
}

// TestLimitedRunStopsEarly: a source that ends before the windows do
// ends the run at its last record.
func TestLimitedRunStopsEarly(t *testing.T) {
	p := workload.Preset(workload.Crypto)
	p.Seed = 9
	prog, _ := workload.BuildProgram(p)
	w := workload.NewWalker(prog)
	ins := make([]trace.Instruction, 1234)
	for i := range ins {
		w.Next(&ins[i])
	}
	m := New(DefaultConfig())
	r := m.RunWindows(&trace.SliceSource{Instrs: ins}, 0, 1_000_000)
	if r.Instructions != 1234 {
		t.Errorf("Instructions = %d, want 1234 (source-limited)", r.Instructions)
	}
}

// presolvedSource packs src's records and presolves them under cfg.
func presolvedSource(t *testing.T, src *trace.SliceSource, cfg Config) *Presolved {
	t.Helper()
	p := mustPack(t, src.Instrs)
	pre, err := Presolve(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

// TestMachineSingleUse holds the "a Machine must not be reused across
// runs" contract: every second use of a consumed machine fails loudly.
func TestMachineSingleUse(t *testing.T) {
	src := func() trace.Source { return loopSource(0x1000, 30, 2000) }
	pre := presolvedSource(t, loopSource(0x1000, 30, 2000), DefaultConfig())

	t.Run("second RunWindows panics", func(t *testing.T) {
		m := New(DefaultConfig())
		m.RunWindows(src(), 20_000, 20_000)
		defer func() {
			if err, _ := recover().(error); !errors.Is(err, ErrMachineUsed) {
				t.Errorf("panic %v, want ErrMachineUsed", err)
			}
		}()
		m.RunWindows(src(), 20_000, 20_000)
		t.Fatal("second RunWindows did not panic")
	})

	t.Run("ctx entry points return typed errors", func(t *testing.T) {
		m := New(DefaultConfig())
		if _, err := m.RunPresolvedCtx(context.Background(), pre, 20_000, 20_000); err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunPresolvedCtx(context.Background(), pre, 20_000, 20_000); !errors.Is(err, ErrMachineUsed) {
			t.Errorf("RunPresolvedCtx on consumed machine: %v, want ErrMachineUsed", err)
		}
	})

	t.Run("canceled run leaves machine used", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		m := New(DefaultConfig())
		if _, err := m.RunPresolvedCtx(ctx, pre, 20_000, 20_000); !errors.Is(err, context.Canceled) {
			t.Fatalf("RunPresolvedCtx under canceled ctx: %v", err)
		}
		if _, err := m.RunPresolvedCtx(context.Background(), pre, 20_000, 20_000); !errors.Is(err, ErrMachineUsed) {
			t.Errorf("RunPresolvedCtx after canceled run: %v, want ErrMachineUsed", err)
		}
	})
}

func TestLargerL1IReducesMisses(t *testing.T) {
	base := run(t, workload.Srv, 10, 300_000, nil)
	big := run(t, workload.Srv, 10, 300_000, func(c *Config) { c.L1I.Ways = 24 }) // 96KB
	if big.L1I.Misses >= base.L1I.Misses {
		t.Errorf("96KB L1I misses %d not below 32KB misses %d", big.L1I.Misses, base.L1I.Misses)
	}
	if big.IPC <= base.IPC {
		t.Errorf("96KB L1I IPC %.3f not above baseline %.3f", big.IPC, base.IPC)
	}
}
