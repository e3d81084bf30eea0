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
	p, err := Pack(ins)
	if err != nil {
		t.Fatal(err)
	}
	return p
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

// TestPackedSourceResumes reads one stream through Next and through
// Window/Seek in uneven steps, both over a packed stream and over a
// repacking source, which packs each window as it is asked for: every
// reader must see the records in order, each step resuming where the
// last one stopped.
func TestPackedSourceResumes(t *testing.T) {
	ins := packedStream(4, 5017)
	p := mustPack(t, ins)

	readers := map[string]*PackedSource{
		"stream":   NewPackedSource(p),
		"repacked": Repack(&SliceSource{Instrs: ins}),
	}
	for name, src := range readers {
		var got []Instruction
		var in Instruction
		for step := 1; ; step = step*7%1000 + 1 {
			if step%2 == 0 {
				// Decode in place, as the simulator does.
				w, c, ok := src.Window(step)
				if !ok {
					break
				}
				for k := 0; k < step && c.Op < w.Len(); k++ {
					c = w.decode(c, &in)
					got = append(got, in)
				}
				src.Seek(c)
			} else if src.Next(&in) {
				got = append(got, in)
			} else {
				break
			}
		}
		if len(got) != len(ins) {
			t.Fatalf("%s: read %d records, want %d", name, len(got), len(ins))
		}
		for i := range ins {
			if got[i] != ins[i] {
				t.Fatalf("%s: record %d: read %+v, want %+v", name, i, got[i], ins[i])
			}
		}
		if src.Err() != nil {
			t.Fatalf("%s: Err = %v", name, src.Err())
		}
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
			if _, err := Pack([]Instruction{{PC: 0, Size: 4}, tc.in}); !errors.Is(err, tc.want) {
				t.Fatalf("Pack = %v, want %v", err, tc.want)
			}
		})
	}
}

// TestRepackStrayFieldsAndBadBranch: a repacking source clears the
// fields a simulator ignores instead of refusing the record, and stops
// with the packer's error at a record it cannot hold.
func TestRepackStrayFieldsAndBadBranch(t *testing.T) {
	src := Repack(&SliceSource{Instrs: []Instruction{
		{PC: 0x100, Size: 4, Target: 0x200, DataAddr: 0x300},
		{PC: 0x104, Size: 4, Branch: Return + 2, Taken: true, Target: 0x400},
		{PC: 0x400, Size: 4},
	}})
	var in Instruction
	if !src.Next(&in) || in != (Instruction{PC: 0x100, Size: 4}) {
		t.Fatalf("first record %+v, want stray target and address cleared", in)
	}
	if src.Next(&in) {
		t.Fatalf("read %+v past an unrepresentable record", in)
	}
	if !errors.Is(src.Err(), ErrBadBranch) {
		t.Fatalf("Err = %v, want ErrBadBranch", src.Err())
	}
}
