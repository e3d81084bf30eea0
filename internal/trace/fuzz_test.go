package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// instructionsFromBytes deterministically derives a valid instruction
// stream from arbitrary fuzz input: every 8-byte chunk becomes one
// instruction, coerced into the codec's documented invariants (nonzero
// size, unconditional branches taken).
func instructionsFromBytes(data []byte) []Instruction {
	var out []Instruction
	pc := uint64(0x401000)
	for len(data) >= 8 {
		chunk := binary.LittleEndian.Uint64(data[:8])
		data = data[8:]
		in := Instruction{
			PC:     pc + (chunk>>8)%4096,
			Size:   uint8(chunk%15) + 1,
			Branch: BranchType(chunk >> 4 & 7),
		}
		if in.Branch > Return {
			in.Branch = NotBranch
		}
		in.Taken = chunk&8 != 0 || in.Branch.IsUnconditional()
		if in.Branch.IsBranch() && in.Taken {
			in.Target = in.PC + (chunk >> 20 % (1 << 20))
		}
		in.IsLoad = chunk&1 != 0
		in.IsStore = chunk&2 != 0
		if in.IsLoad || in.IsStore {
			in.DataAddr = 0x7f0000000000 + (chunk >> 32)
		}
		pc = in.NextPC()
		out = append(out, in)
	}
	return out
}

// canonical strips fields the codec documents as meaningless for the
// record (Target of untaken/non-branches, DataAddr of non-memory ops),
// which it therefore does not preserve.
func canonical(in Instruction) Instruction {
	if !(in.Branch.IsBranch() && in.Taken) {
		in.Target = 0
	}
	if !in.IsLoad && !in.IsStore {
		in.DataAddr = 0
	}
	return in
}

func encodeAll(t *testing.T, ins []Instruction, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, compress)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ins {
		if err := w.Write(&ins[i]); err != nil {
			t.Fatalf("encode record %d (%+v): %v", i, ins[i], err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCodecRoundTrip checks, for arbitrary inputs, that
//
//  1. any valid instruction stream survives encode → decode with every
//     preserved field intact,
//  2. re-encoding the decoded stream is byte-identical (the encoding is
//     canonical), and
//  3. the decoder never panics on the input bytes themselves, with or
//     without a valid header in front.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, true)
	f.Add(bytes.Repeat([]byte{0xff}, 64), false)
	f.Add([]byte("ENTRACE1 not really a trace"), false)
	f.Add(append([]byte("ENTRACE1"), 0, 1, 2, 3, 4, 5, 6, 7), true)

	f.Fuzz(func(t *testing.T, data []byte, compress bool) {
		ins := instructionsFromBytes(data)
		if len(ins) > 0 {
			enc := encodeAll(t, ins, compress)

			r, err := NewReader(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("decoding own encoding: %v", err)
			}
			var got []Instruction
			var in Instruction
			for r.Next(&in) {
				got = append(got, in)
			}
			if r.Err() != nil {
				t.Fatalf("decoding own encoding: %v", r.Err())
			}
			if len(got) != len(ins) {
				t.Fatalf("decoded %d records, wrote %d", len(got), len(ins))
			}
			for i := range ins {
				if canonical(got[i]) != canonical(ins[i]) {
					t.Fatalf("record %d: decoded %+v, wrote %+v", i, got[i], ins[i])
				}
			}

			re := encodeAll(t, got, compress)
			if !bytes.Equal(enc, re) {
				t.Fatalf("re-encoding not byte-identical: %d vs %d bytes", len(enc), len(re))
			}
		}

		// The decoder must reject or truncate, never panic, on
		// arbitrary bytes...
		if r, err := NewReader(bytes.NewReader(data)); err == nil {
			var in Instruction
			for i := 0; r.Next(&in) && i < 100_000; i++ {
			}
			_ = r.Err()
		}
		// ...including bytes hiding behind a valid-looking header.
		framed := append([]byte("ENTRACE1\x00\x00\x00\x00"), data...)
		if r, err := NewReader(bytes.NewReader(framed)); err == nil {
			var in Instruction
			for i := 0; r.Next(&in) && i < 100_000; i++ {
			}
			_ = r.Err()
		}
	})
}

// rawInstruction derives an arbitrary record, valid or not, from 28
// bytes of fuzz input.
func rawInstruction(b []byte) Instruction {
	return Instruction{
		PC:       binary.LittleEndian.Uint64(b[0:]),
		Target:   binary.LittleEndian.Uint64(b[8:]) >> (b[24] & 63),
		DataAddr: binary.LittleEndian.Uint64(b[16:]) >> (b[25] & 63),
		Size:     b[26],
		Branch:   BranchType(b[27] % 9),
		Taken:    b[25]&64 != 0,
		IsLoad:   b[25]&128 != 0,
		IsStore:  b[24]&64 != 0,
	}
}

// FuzzPackedRoundTrip checks, for arbitrary records, that the packer
// either refuses a record with a typed error, because it is one the
// packed form cannot hold, or packs it so that it decodes back
// identically; and that a valid codec stream packs exactly.
func FuzzPackedRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 56))
	f.Add(bytes.Repeat([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, 12))

	f.Fuzz(func(t *testing.T, data []byte) {
		var ins []Instruction
		pk := NewPacker(0, 0)
		for b := data; len(b) >= 28; b = b[28:] {
			in := rawInstruction(b)
			mem := in.IsLoad || in.IsStore
			err := pk.Append(&in)
			switch {
			case in.Branch > Return:
				if !errors.Is(err, ErrBadBranch) {
					t.Fatalf("%+v: Append = %v, want ErrBadBranch", in, err)
				}
			case in.Branch == NotBranch && in.Target != 0:
				if !errors.Is(err, ErrStrayTarget) {
					t.Fatalf("%+v: Append = %v, want ErrStrayTarget", in, err)
				}
			case !mem && in.DataAddr != 0:
				if !errors.Is(err, ErrStrayData) {
					t.Fatalf("%+v: Append = %v, want ErrStrayData", in, err)
				}
			case err != nil:
				t.Fatalf("%+v: Append refused a representable record: %v", in, err)
			default:
				ins = append(ins, in)
			}
		}
		checkExpand(t, pk.Packed(), ins)

		valid := instructionsFromBytes(data)
		checkExpand(t, mustPack(t, valid), valid)
	})
}

func checkExpand(t *testing.T, p *Packed, want []Instruction) {
	t.Helper()
	got := p.Expand()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, packed %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: decoded %+v, packed %+v", i, got[i], want[i])
		}
	}
}
