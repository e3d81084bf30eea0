package cpu

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"entangling/internal/prefetch"
	"entangling/internal/trace"
)

// mustPack packs ins whole.
func mustPack(t *testing.T, ins []trace.Instruction) *trace.Packed {
	t.Helper()
	pk := trace.NewPacker(len(ins), 0)
	if _, err := trace.Copy(pk.Append, &trace.SliceSource{Instrs: ins}, uint64(len(ins))); err != nil {
		t.Fatal(err)
	}
	return pk.Packed()
}

// mixedStream is a deterministic stream with every kind of record the
// packed form distinguishes: plain, loads, stores, taken and not-taken
// branches, and jumps and sizes that need an escape.
func mixedStream(n int) []trace.Instruction {
	ins := make([]trace.Instruction, n)
	pc := uint64(0x400000)
	x := uint64(0x9e3779b97f4a7c15)
	for i := range ins {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		in := trace.Instruction{PC: pc, Size: trace.DefaultSize}
		switch x % 16 {
		case 0, 1:
			in.Branch, in.Taken, in.Target = trace.CondBranch, x&64 != 0, 0x400000+(x>>20)%0x8000&^3
		case 2:
			in.Branch, in.Taken, in.Target = trace.DirectCall, true, 0x410000+(x>>24)%0x4000&^3
		case 3:
			in.Branch, in.Taken, in.Target = trace.Return, true, 0x400000+(x>>28)%0x8000&^3
		case 4, 5, 6:
			in.IsLoad, in.DataAddr = true, 0x7f000000+(x>>16)%0x100000
		case 7:
			in.IsStore, in.DataAddr = true, 0x7f000000+(x>>18)%0x100000
		case 8:
			in.Size = 2
		}
		ins[i] = in
		pc = in.NextPC()
		if x%97 == 0 {
			pc = 0x420000 + (x>>8)%0x1000&^3 // a jump without a branch
		}
	}
	return ins
}

// branchRecorder is a prefetcher that issues nothing and records every
// branch event the machine delivers.
type branchRecorder struct {
	prefetch.Base
	evs *[]prefetch.BranchEvent
}

func (r *branchRecorder) OnBranch(e prefetch.BranchEvent) { *r.evs = append(*r.evs, e) }

// recordBranches returns a factory for a branchRecorder appending to
// evs.
func recordBranches(evs *[]prefetch.BranchEvent) prefetch.Factory {
	return func(prefetch.Issuer) prefetch.Prefetcher {
		return &branchRecorder{Base: prefetch.Base{PfName: "branches"}, evs: evs}
	}
}

// runWindowsErr is RunWindows that returns the error it panics with.
func runWindowsErr(m *Machine, src trace.Source, warmup, measure uint64) (res Results, err error) {
	defer func() {
		if r := recover(); r != nil {
			err, _ = r.(error)
			if err == nil {
				panic(r)
			}
		}
	}()
	return m.RunWindows(src, warmup, measure), nil
}

// TestPackedCursorResumes: the machine resumes its read position
// exactly across the warmup/measure boundary and across the
// cancelCheckInterval chunks of a cancellable run, and RunWindows packs
// a record source into the same stream. Every way of feeding the same
// stream must give the same results and the same branch events, and
// those events must be the stream's branches in order.
func TestPackedCursorResumes(t *testing.T) {
	ins := mixedStream(3*cancelCheckInterval + 1234)
	p := mustPack(t, ins)
	pre, err := Presolve(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The boundary falls inside a chunk.
	const warmup = cancelCheckInterval + 777
	measure := uint64(len(ins)) - warmup - 100

	machine := func(evs *[]prefetch.BranchEvent) *Machine {
		cfg := DefaultConfig()
		cfg.Prefetcher = recordBranches(evs)
		return New(cfg)
	}
	replay := func(cancellable bool) (Results, []prefetch.BranchEvent) {
		ctx := context.Background()
		if cancellable {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			defer cancel()
		}
		var evs []prefetch.BranchEvent
		res, err := machine(&evs).RunPresolvedCtx(ctx, pre, warmup, measure)
		if err != nil {
			t.Fatal(err)
		}
		return res, evs
	}

	want, wantEvs := replay(false)
	if want.Instructions != measure {
		t.Fatalf("measured %d instructions, want %d", want.Instructions, measure)
	}
	var branches []trace.Instruction
	for _, in := range ins[:warmup+measure] {
		if in.Branch.IsBranch() {
			branches = append(branches, in)
		}
	}
	if len(wantEvs) != len(branches) {
		t.Fatalf("%d branch events, stream has %d branches", len(wantEvs), len(branches))
	}
	for i, e := range wantEvs {
		in := branches[i]
		if e.PC != in.PC || e.Type != in.Branch || e.Taken != in.Taken || e.Target != in.Target {
			t.Fatalf("branch event %d = %+v, stream has %+v", i, e, in)
		}
	}

	got, evs := replay(true)
	check := func(name string) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: results diverged:\ngot  %+v\nwant %+v", name, got, want)
		}
		if !reflect.DeepEqual(evs, wantEvs) {
			t.Errorf("%s: branch events diverged", name)
		}
	}
	check("packed, chunked")
	evs = nil
	got = machine(&evs).RunWindows(&trace.SliceSource{Instrs: ins}, warmup, measure)
	check("record source")
}

// TestRunWindowsRefusesUnpackableRecord: a record source that yields a
// branch type the packed form cannot hold fails the run with the
// packer's error instead of simulating a corrupted record, while a
// target on a non-branch and a data address on a non-memory op, which
// a simulator ignores, are cleared rather than refused.
func TestRunWindowsRefusesUnpackableRecord(t *testing.T) {
	src := &trace.SliceSource{Instrs: []trace.Instruction{
		{PC: 0x1000, Size: 4},
		{PC: 0x1004, Size: 4, Branch: trace.Return + 1, Taken: true, Target: 0x2000},
	}}
	if _, err := runWindowsErr(New(DefaultConfig()), src, 0, 10); !errors.Is(err, trace.ErrBadBranch) {
		t.Fatalf("err = %v, want ErrBadBranch", err)
	}

	stray := []trace.Instruction{
		{PC: 0x100, Size: 4, Target: 0x200, DataAddr: 0x300},
		{PC: 0x104, Size: 4, IsLoad: true, DataAddr: 0x7f00},
		{PC: 0x108, Size: 4, Branch: trace.DirectJump, Taken: true, Target: 0x400},
		{PC: 0x400, Size: 4, DataAddr: 0x500},
	}
	clean := append([]trace.Instruction(nil), stray...)
	clean[0].Target, clean[0].DataAddr, clean[3].DataAddr = 0, 0, 0
	got, err := runWindowsErr(New(DefaultConfig()), &trace.SliceSource{Instrs: stray}, 0, 10)
	if err != nil {
		t.Fatalf("stray fields refused: %v", err)
	}
	if want := New(DefaultConfig()).RunWindows(&trace.SliceSource{Instrs: clean}, 0, 10); !reflect.DeepEqual(got, want) {
		t.Errorf("stray fields changed the run:\ngot  %+v\nwant %+v", got, want)
	}
}
