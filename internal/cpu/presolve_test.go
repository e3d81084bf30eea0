package cpu

import (
	"context"
	"errors"
	"hash/fnv"
	"reflect"
	"testing"

	"entangling/internal/trace"
)

// fuzzStream builds n records whose kinds cycle through data: each
// byte picks a branch type (bits 0-2, 7 = none), a load or a store
// (bits 3-4), a 2-byte size (bit 5) and a jump that needs an escape
// (bit 6). Addresses and directions come from a xorshift seeded by
// data, over few enough targets and lines that the BTB, the RAS and the
// L1D both hit and miss.
func fuzzStream(data []byte, n int) []trace.Instruction {
	h := fnv.New64a()
	h.Write(data)
	x := h.Sum64() | 1
	ins := make([]trace.Instruction, n)
	var calls []uint64
	pc := uint64(0x400000)
	for i := range ins {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := data[i%len(data)]
		in := trace.Instruction{PC: pc, Size: trace.DefaultSize}
		if k&0x20 != 0 {
			in.Size = 2
		}
		switch k >> 3 & 3 {
		case 1:
			in.IsLoad, in.DataAddr = true, 0x7f000000+(x>>24)%0x20000
		case 2:
			in.IsStore, in.DataAddr = true, 0x7f000000+(x>>24)%0x20000
		}
		if br := trace.BranchType(k & 7); br != 7 {
			in.Branch = br
			in.Taken = br != trace.CondBranch || x&3 != 0
			in.Target = 0x400000 + (x>>8)%0x3000&^1
			if br == trace.Return && len(calls) > 0 && x&7 != 0 {
				in.Target = calls[len(calls)-1]
				calls = calls[:len(calls)-1]
			}
			if br == trace.NotBranch {
				in.Taken, in.Target = false, 0
			}
			if in.Branch.IsCall() && len(calls) < 100 {
				calls = append(calls, in.NextPC())
			}
		}
		ins[i] = in
		pc = in.NextPC()
		if k&0x40 != 0 {
			pc = 0x420000 + (x>>40)%0x1000&^1
		}
	}
	return ins
}

// FuzzCancellableReplayMatches: a cancellable replay, which polls its
// context between cancelCheckInterval chunks, must produce exactly the
// results of an uncancellable one over the same presolved trace, at
// windows that straddle chunk boundaries, with physical addresses on
// and off.
func FuzzCancellableReplayMatches(f *testing.F) {
	f.Add([]byte{0x01, 0x08, 0x00, 0x13, 0x02, 0x16, 0x04, 0x55, 0x06, 0x0f, 0x07, 0x00})
	f.Add([]byte{0xff, 0x03, 0x21, 0x42, 0x0d, 0x05})
	f.Add([]byte{0x00, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := cancelCheckInterval + 8192
		p := mustPack(t, fuzzStream(data, n))
		warmup := uint64(cancelCheckInterval/2) + uint64(data[0])*48
		measure := uint64(n) - warmup - uint64(data[1]%8)*100

		cfg := DefaultConfig()
		cfg.PhysicalAddresses = data[1]&0x80 != 0
		cfg.TranslatorSalt = uint64(data[0])
		pre, err := Presolve(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(cfg).RunPresolvedCtx(context.Background(), pre, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		if want.Instructions != measure {
			t.Fatalf("measured %d instructions, want %d", want.Instructions, measure)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		got, err := New(cfg).RunPresolvedCtx(ctx, pre, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("a cancellable replay diverged:\ngot  %+v\nwant %+v", got, want)
		}
	})
}

// TestPresolvedKeyMismatch: outcomes presolved for one predictor, L1D
// or address mapping are refused by a machine of another, and the
// refusal leaves the machine runnable.
func TestPresolvedKeyMismatch(t *testing.T) {
	p := mustPack(t, mixedStream(5000))
	phys := DefaultConfig()
	phys.PhysicalAddresses, phys.TranslatorSalt = true, 7
	pre, err := Presolve(p, phys)
	if err != nil {
		t.Fatal(err)
	}

	virt := DefaultConfig()
	virt.TranslatorSalt = 7 // ignored without PhysicalAddresses
	otherSalt := phys
	otherSalt.TranslatorSalt = 8
	otherPred := phys
	otherPred.Pred.BTBWays = 4
	otherL1D := phys
	otherL1D.L1D.Ways = 8
	for name, cfg := range map[string]Config{"virtual": virt, "salt": otherSalt, "predictor": otherPred, "L1D": otherL1D} {
		m := New(cfg)
		if _, err := m.RunPresolvedCtx(context.Background(), pre, 1000, 1000); !errors.Is(err, ErrPresolvedMismatch) {
			t.Errorf("%s: err = %v, want ErrPresolvedMismatch", name, err)
		}
		own, err := Presolve(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.RunPresolvedCtx(context.Background(), own, 1000, 1000); err != nil {
			t.Errorf("%s: the refused machine does not run: %v", name, err)
		}
	}

	// A different PQ size, like every L1I or prefetcher setting, shares
	// the outcomes.
	same := phys
	same.L1I.PQSize = 8
	if _, err := New(same).RunPresolvedCtx(context.Background(), pre, 1000, 1000); err != nil {
		t.Errorf("an L1I-only difference was refused: %v", err)
	}
	if virt.PresolveKey() != DefaultConfig().PresolveKey() {
		t.Error("the translator salt keys a virtual-address machine")
	}
}

// TestPresolveRefusesWideL1D: an L1D way number must fit its outcome
// byte; a wider L1D fails the run instead of replaying wrong ways.
func TestPresolveRefusesWideL1D(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1D.Sets, cfg.L1D.Ways = 4, maxPresolvedWays+1
	p := mustPack(t, mixedStream(100))
	if _, err := Presolve(p, cfg); err == nil {
		t.Error("Presolve accepted an L1D of too many ways")
	}
	if _, err := runWindowsErr(New(cfg), trace.NewPackedSource(p), 0, 100); err == nil {
		t.Error("RunWindows accepted an L1D of too many ways")
	}
	cfg.L1D.Ways = maxPresolvedWays
	if _, err := runWindowsErr(New(cfg), trace.NewPackedSource(p), 0, 100); err != nil {
		t.Errorf("an L1D of %d ways: %v", maxPresolvedWays, err)
	}
}
