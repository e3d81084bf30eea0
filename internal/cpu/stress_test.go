package cpu

// Stress tests: randomized configurations and hostile instruction
// streams must never panic or hang, whatever metrics they produce.

import (
	"math/rand"
	"testing"

	"entangling/internal/prefetch"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

func TestRandomConfigurationsDoNotPanic(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	rng := rand.New(rand.NewSource(7))
	names := prefetch.Names()
	for i := 0; i < 20; i++ {
		cfg := DefaultConfig()
		cfg.FetchWidth = 1 + rng.Intn(8)
		cfg.RetireWidth = 1 + rng.Intn(8)
		cfg.ROBSize = 8 << rng.Intn(6)
		cfg.FTQDepth = 1 + rng.Intn(48)
		cfg.L1I.Ways = 1 << rng.Intn(4)
		cfg.L1I.MSHRs = 1 + rng.Intn(16)
		cfg.L1I.PQSize = 1 + rng.Intn(64)
		cfg.L2.ServiceInterval = uint64(rng.Intn(4))
		cfg.DRAM.Latency = 50 + uint64(rng.Intn(400))
		cfg.PhysicalAddresses = rng.Intn(2) == 0
		name := names[rng.Intn(len(names))]
		cfg.Prefetcher = func(is prefetch.Issuer) prefetch.Prefetcher {
			pf, err := prefetch.New(name, is)
			if err != nil {
				t.Fatal(err)
			}
			return pf
		}
		p := workload.Preset(workload.Srv)
		p.Seed = uint64(i + 1)
		prog, err := workload.BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		m := New(cfg)
		r := m.RunWindows(workload.NewWalker(prog), 0, 60_000)
		if r.Instructions != 60_000 {
			t.Fatalf("config %d (%s): ran %d instructions", i, name, r.Instructions)
		}
		if r.Cycles == 0 {
			t.Fatalf("config %d (%s): zero cycles", i, name)
		}
	}
}

func TestHostileStreamsDoNotPanic(t *testing.T) {
	// Pathological streams: same-line jumps, self-loops, address wrap
	// neighborhood, dense calls without returns, returns without calls.
	streams := map[string][]trace.Instruction{
		"self-loop": {
			{PC: 0x1000, Size: 4, Branch: trace.DirectJump, Taken: true, Target: 0x1000},
		},
		"call-storm": {
			{PC: 0x1000, Size: 4, Branch: trace.DirectCall, Taken: true, Target: 0x1000},
		},
		"return-storm": {
			{PC: 0x1000, Size: 4, Branch: trace.Return, Taken: true, Target: 0x1000},
		},
		"high-addresses": {
			{PC: ^uint64(0) - 256, Size: 4},
			{PC: ^uint64(0) - 252, Size: 4, Branch: trace.DirectJump, Taken: true, Target: ^uint64(0) - 256},
		},
	}
	for name, pattern := range streams {
		var instrs []trace.Instruction
		for len(instrs) < 20_000 {
			instrs = append(instrs, pattern...)
		}
		cfg := DefaultConfig()
		cfg.Prefetcher = func(is prefetch.Issuer) prefetch.Prefetcher {
			pf, err := prefetch.New("entangling-4k", is)
			if err != nil {
				t.Fatal(err)
			}
			return pf
		}
		m := New(cfg)
		r := m.RunWindows(&trace.SliceSource{Instrs: instrs}, 0, 20_000)
		if r.Instructions != 20_000 {
			t.Errorf("%s: ran %d instructions", name, r.Instructions)
		}
	}
}

func TestAllRegisteredPrefetchersRun(t *testing.T) {
	if testing.Short() {
		t.Skip("stress")
	}
	p := workload.Preset(workload.Int)
	p.Seed = 2
	prog, err := workload.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range prefetch.Names() {
		name := name
		cfg := DefaultConfig()
		cfg.Prefetcher = func(is prefetch.Issuer) prefetch.Prefetcher {
			pf, err := prefetch.New(name, is)
			if err != nil {
				t.Fatal(err)
			}
			return pf
		}
		m := New(cfg)
		r := m.RunWindows(workload.NewWalker(prog), 0, 50_000)
		if r.Instructions != 50_000 {
			t.Errorf("%s: incomplete run", name)
		}
		if r.PrefetcherName != name {
			t.Errorf("prefetcher name %q, want %q", r.PrefetcherName, name)
		}
	}
}
