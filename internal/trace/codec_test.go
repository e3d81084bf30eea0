package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func randInstr(rng *rand.Rand, pc uint64) Instruction {
	in := Instruction{
		PC:   pc,
		Size: uint8(1 + rng.Intn(15)),
	}
	switch rng.Intn(8) {
	case 0:
		in.Branch = CondBranch
		in.Taken = rng.Intn(2) == 0
	case 1:
		in.Branch = DirectJump
		in.Taken = true
	case 2:
		in.Branch = DirectCall
		in.Taken = true
	case 3:
		in.Branch = Return
		in.Taken = true
	case 4:
		in.Branch = IndirectJump
		in.Taken = true
	}
	if in.Branch.IsBranch() && in.Taken {
		in.Target = uint64(rng.Int63n(1 << 40))
	}
	switch rng.Intn(4) {
	case 0:
		in.IsLoad = true
		in.DataAddr = uint64(rng.Int63n(1 << 40))
	case 1:
		in.IsStore = true
		in.DataAddr = uint64(rng.Int63n(1 << 40))
	}
	return in
}

func genStream(seed int64, n int) []Instruction {
	rng := rand.New(rand.NewSource(seed))
	pc := uint64(0x400000)
	out := make([]Instruction, 0, n)
	for i := 0; i < n; i++ {
		in := randInstr(rng, pc)
		out = append(out, in)
		if rng.Intn(10) == 0 {
			pc = uint64(rng.Int63n(1 << 40)) // discontinuity not via branch
		} else {
			pc = in.NextPC()
		}
	}
	return out
}

func roundTrip(t *testing.T, instrs []Instruction, compress bool) []Instruction {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, compress)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatalf("Write[%d]: %v", i, err)
		}
	}
	if w.Count() != uint64(len(instrs)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(instrs))
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	var got []Instruction
	var in Instruction
	for r.Next(&in) {
		got = append(got, in)
	}
	if r.Err() != nil {
		t.Fatalf("Reader error: %v", r.Err())
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	for _, compress := range []bool{false, true} {
		instrs := genStream(42, 5000)
		got := roundTrip(t, instrs, compress)
		if len(got) != len(instrs) {
			t.Fatalf("compress=%v: got %d records, want %d", compress, len(got), len(instrs))
		}
		for i := range instrs {
			if got[i] != instrs[i] {
				t.Fatalf("compress=%v: record %d mismatch:\n got %+v\nwant %+v", compress, i, got[i], instrs[i])
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		instrs := genStream(seed, int(n%512)+1)
		got := roundTrip(t, instrs, false)
		if len(got) != len(instrs) {
			return false
		}
		for i := range instrs {
			if got[i] != instrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestSequentialEncodingIsCompact(t *testing.T) {
	// 1000 sequential non-branch instructions should cost ~2 bytes each.
	instrs := make([]Instruction, 1000)
	pc := uint64(0x1000)
	for i := range instrs {
		instrs[i] = Instruction{PC: pc, Size: 4}
		pc += 4
	}
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if buf.Len() > 12+2*1000+10 {
		t.Errorf("sequential encoding too large: %d bytes for 1000 instrs", buf.Len())
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	if err := w.Write(&Instruction{PC: 1, Size: 0}); err == nil {
		t.Error("zero-size instruction accepted")
	}
	if err := w.Write(&Instruction{PC: 1, Size: 4, Branch: DirectJump, Taken: false}); err == nil {
		t.Error("not-taken unconditional branch accepted")
	}
}

func TestReaderBadMagic(t *testing.T) {
	_, err := NewReader(strings.NewReader("NOTATRACE123"))
	if err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestReaderTruncated(t *testing.T) {
	instrs := genStream(7, 100)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	for i := range instrs {
		w.Write(&instrs[i])
	}
	w.Close()
	// Chop the stream mid-record.
	b := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	n := 0
	for r.Next(&in) {
		n++
	}
	if n >= 100 {
		t.Errorf("read %d records from truncated stream", n)
	}
	// Either a clean boundary (nil) or an explicit truncation error is
	// acceptable, but it must stop.
}

func TestBranchTypeHelpers(t *testing.T) {
	if NotBranch.IsBranch() {
		t.Error("NotBranch.IsBranch")
	}
	if !DirectCall.IsCall() || !IndirectCall.IsCall() || Return.IsCall() {
		t.Error("IsCall misclassification")
	}
	if !IndirectJump.IsIndirect() || DirectJump.IsIndirect() {
		t.Error("IsIndirect misclassification")
	}
	if CondBranch.IsUnconditional() || !DirectJump.IsUnconditional() || NotBranch.IsUnconditional() {
		t.Error("IsUnconditional misclassification")
	}
	for b := NotBranch; b <= Return; b++ {
		if b.String() == "" {
			t.Errorf("empty String for %d", b)
		}
	}
	if BranchType(99).String() != "BranchType(99)" {
		t.Error("unknown BranchType String")
	}
}

func TestNextPC(t *testing.T) {
	in := Instruction{PC: 100, Size: 4}
	if in.NextPC() != 104 {
		t.Errorf("fallthrough NextPC = %d", in.NextPC())
	}
	in = Instruction{PC: 100, Size: 4, Branch: CondBranch, Taken: true, Target: 200}
	if in.NextPC() != 200 {
		t.Errorf("taken NextPC = %d", in.NextPC())
	}
	in.Taken = false
	if in.NextPC() != 104 {
		t.Errorf("not-taken NextPC = %d", in.NextPC())
	}
}

func TestSliceSourceReset(t *testing.T) {
	src := &SliceSource{Instrs: genStream(1, 5)}
	var in Instruction
	for src.Next(&in) {
	}
	src.Reset()
	if !src.Next(&in) {
		t.Error("Reset did not rewind")
	}
}

func TestDescribe(t *testing.T) {
	in := Instruction{PC: 0x1000, Size: 4, Branch: DirectCall, Taken: true, Target: 0x2000, IsLoad: true, DataAddr: 0x3000}
	s := Describe(&in)
	for _, want := range []string{"pc=", "call", "load"} {
		if !strings.Contains(s, want) {
			t.Errorf("Describe = %q, missing %q", s, want)
		}
	}
	nt := Instruction{PC: 0x1000, Size: 4, Branch: CondBranch, Taken: false}
	if !strings.Contains(Describe(&nt), "not-taken") {
		t.Errorf("Describe = %q, missing not-taken", Describe(&nt))
	}
	st := Instruction{PC: 0x1000, Size: 4, IsStore: true, DataAddr: 0x5000}
	if !strings.Contains(Describe(&st), "store") {
		t.Errorf("Describe = %q, missing store", Describe(&st))
	}
}
