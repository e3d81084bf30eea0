package trace

import (
	"errors"
	"testing"
)

// packedStream is genStream with the fields the codec drops but the
// packed form keeps: a target on some not-taken conditional branches
// (the workload walker sets one) and a record that is both a load and
// a store.
func packedStream(seed int64, n int) []Instruction {
	ins := genStream(seed, n)
	for i := range ins {
		if ins[i].Branch == CondBranch && !ins[i].Taken && i%3 == 0 {
			ins[i].Target = ins[i].PC + 64
		}
	}
	ins[n/2].IsLoad, ins[n/2].IsStore, ins[n/2].DataAddr = true, true, 0x7f00
	return ins
}

func mustPack(t *testing.T, ins []Instruction) *Packed {
	t.Helper()
	pk := NewPacker(len(ins), 0)
	if _, err := Copy(pk.Append, &SliceSource{Instrs: ins}, uint64(len(ins))); err != nil {
		t.Fatal(err)
	}
	return pk.Packed()
}

func TestPackedRoundTrip(t *testing.T) {
	ins := packedStream(3, 5000)
	p := mustPack(t, ins)
	if p.Len() != len(ins) {
		t.Fatalf("packed %d records, want %d", p.Len(), len(ins))
	}
	for i, got := range p.Expand() {
		if got != ins[i] {
			t.Fatalf("record %d: decoded %+v, packed %+v", i, got, ins[i])
		}
	}
	// genStream jumps without a branch and varies sizes, so both
	// escape causes occur.
	var esc int
	for _, op := range p.Ops {
		if op&OpEscape != 0 {
			esc++
		}
	}
	if esc == 0 || esc == len(ins) {
		t.Fatalf("%d of %d records escaped; the stream should mix both kinds", esc, len(ins))
	}
}

// TestPackedSourceResumes reads a packed stream through Next: each
// call must resume where the last one stopped, so the reader sees every
// record in order, and the stream stays ended once it ends.
func TestPackedSourceResumes(t *testing.T) {
	ins := packedStream(4, 5017)
	src := NewPackedSource(mustPack(t, ins))
	var got []Instruction
	var in Instruction
	for src.Next(&in) {
		got = append(got, in)
	}
	if len(got) != len(ins) {
		t.Fatalf("read %d records, want %d", len(got), len(ins))
	}
	for i := range ins {
		if got[i] != ins[i] {
			t.Fatalf("record %d: read %+v, want %+v", i, got[i], ins[i])
		}
	}
	if src.Next(&in) {
		t.Fatalf("read %+v past the end of the stream", in)
	}
}

func TestPackerRejectsUnrepresentable(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   Instruction
		want error
	}{
		{"target on a non-branch", Instruction{PC: 4, Size: 4, Target: 8}, ErrStrayTarget},
		{"address on a non-memory op", Instruction{PC: 4, Size: 4, DataAddr: 8}, ErrStrayData},
		{"address on a branch", Instruction{PC: 4, Size: 4, Branch: CondBranch, DataAddr: 8}, ErrStrayData},
		{"branch type beyond Return", Instruction{PC: 4, Size: 4, Branch: Return + 1}, ErrBadBranch},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pk := NewPacker(1, 1)
			if err := pk.Append(&tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("Append = %v, want %v", err, tc.want)
			}
			if p := pk.Packed(); p.Len() != 0 || len(p.Words) != 0 {
				t.Fatalf("a refused record left %d ops and %d words", p.Len(), len(p.Words))
			}
			src := &SliceSource{Instrs: []Instruction{{PC: 0, Size: 4}, tc.in}}
			if n, err := Copy(NewPacker(2, 0).Append, src, 2); n != 1 || !errors.Is(err, tc.want) {
				t.Fatalf("Copy = %d, %v; want 1, %v", n, err, tc.want)
			}
		})
	}
}

// TestRepackStrayFieldsAndBadBranch: repacking a record clears the
// fields a simulator ignores instead of refusing the record, and fails
// with ErrBadBranch, adding nothing, on a record it cannot hold.
func TestRepackStrayFieldsAndBadBranch(t *testing.T) {
	pk := NewPacker(0, 0)
	for _, in := range []Instruction{
		{PC: 0x100, Size: 4, Target: 0x200, DataAddr: 0x300},
		{PC: 0x104, Size: 4, IsLoad: true, DataAddr: 0x7f00},
		{PC: 0x108, Size: 4, Branch: DirectJump, Taken: true, Target: 0x400},
	} {
		if err := pk.Repack(&in); err != nil {
			t.Fatalf("Repack(%+v): %v", in, err)
		}
	}
	bad := Instruction{PC: 0x400, Size: 4, Branch: Return + 2, Taken: true, Target: 0x500}
	if err := pk.Repack(&bad); !errors.Is(err, ErrBadBranch) {
		t.Fatalf("Repack of a bad branch: err = %v, want ErrBadBranch", err)
	}
	want := []Instruction{
		{PC: 0x100, Size: 4},
		{PC: 0x104, Size: 4, IsLoad: true, DataAddr: 0x7f00},
		{PC: 0x108, Size: 4, Branch: DirectJump, Taken: true, Target: 0x400},
	}
	got := pk.Packed().Expand()
	if len(got) != len(want) {
		t.Fatalf("packed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("record %d: %+v, want %+v", i, got[i], want[i])
		}
	}
}
