package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

// champsimBuilder assembles raw 64-byte ChampSim records for fixtures,
// applying the inverse of the classify() heuristics: each branch type
// maps back to the register read/write sets ChampSim's tracer emits
// for it.
type champsimBuilder struct {
	buf bytes.Buffer
}

type csRec struct {
	ip      uint64
	branch  bool
	taken   bool
	destReg []uint8
	srcReg  []uint8
	destMem []uint64
	srcMem  []uint64
}

func (b *champsimBuilder) add(r csRec) {
	var rec [champsimRecordSize]byte
	binary.LittleEndian.PutUint64(rec[0:8], r.ip)
	if r.branch {
		rec[8] = 1
	}
	if r.taken {
		rec[9] = 1
	}
	for i, v := range r.destReg {
		rec[10+i] = v
	}
	for i, v := range r.srcReg {
		rec[12+i] = v
	}
	for i, v := range r.destMem {
		binary.LittleEndian.PutUint64(rec[16+8*i:24+8*i], v)
	}
	for i, v := range r.srcMem {
		binary.LittleEndian.PutUint64(rec[32+8*i:40+8*i], v)
	}
	b.buf.Write(rec[:])
}

// plain appends a non-branch record at ip.
func (b *champsimBuilder) plain(ip uint64) { b.add(csRec{ip: ip}) }

// branchRec appends a branch of the given type at ip; the register
// sets are the inverse of classify().
func (b *champsimBuilder) branchRec(ip uint64, bt BranchType, taken bool) {
	r := csRec{ip: ip, branch: true, taken: taken}
	switch bt {
	case CondBranch:
		r.srcReg = []uint8{champsimRegFlags}
		r.destReg = []uint8{champsimRegIP}
	case DirectJump:
		r.destReg = []uint8{champsimRegIP}
	case IndirectJump:
		r.destReg = []uint8{champsimRegIP}
		r.srcReg = []uint8{3} // some general-purpose register
	case DirectCall:
		r.destReg = []uint8{champsimRegIP, champsimRegSP}
		r.srcReg = []uint8{champsimRegIP, champsimRegSP}
	case IndirectCall:
		r.destReg = []uint8{champsimRegIP, champsimRegSP}
		r.srcReg = []uint8{champsimRegIP, champsimRegSP, 3}
	case Return:
		r.destReg = []uint8{champsimRegIP, champsimRegSP}
		r.srcReg = []uint8{champsimRegSP}
	default:
		panic("not a branch type")
	}
	b.add(r)
}

func importAll(t *testing.T, raw []byte, opt ChampSimOptions) ([]Instruction, error) {
	t.Helper()
	cr, err := NewChampSimReader(bytes.NewReader(raw), opt)
	if err != nil {
		return nil, err
	}
	var out []Instruction
	var in Instruction
	for cr.Next(&in) {
		out = append(out, in)
	}
	return out, cr.Err()
}

func TestChampSimBranchClassification(t *testing.T) {
	types := []BranchType{CondBranch, DirectJump, IndirectJump, DirectCall, IndirectCall, Return}
	var b champsimBuilder
	ip := uint64(0x400000)
	for _, bt := range types {
		b.branchRec(ip, bt, true)
		ip += 0x100 // taken: the next record is the target
	}
	b.plain(ip) // terminal record so every branch has lookahead

	got, err := importAll(t, b.buf.Bytes(), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(types)+1 {
		t.Fatalf("imported %d records, want %d", len(got), len(types)+1)
	}
	for i, bt := range types {
		if got[i].Branch != bt {
			t.Errorf("record %d: classified %s, want %s", i, got[i].Branch, bt)
		}
		if !got[i].Taken {
			t.Errorf("record %d (%s): not taken", i, bt)
		}
		if want := got[i].PC + 0x100; got[i].Target != want {
			t.Errorf("record %d (%s): target %#x, want next ip %#x", i, bt, got[i].Target, want)
		}
	}
}

func TestChampSimUntakenCondBranch(t *testing.T) {
	var b champsimBuilder
	b.branchRec(0x1000, CondBranch, false)
	b.plain(0x1004)
	got, err := importAll(t, b.buf.Bytes(), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Branch != CondBranch || got[0].Taken {
		t.Errorf("untaken conditional imported as %+v", got[0])
	}
	if got[0].Size != 4 {
		t.Errorf("fall-through size = %d, want 4 (ip delta)", got[0].Size)
	}
}

// TestChampSimUnconditionalForcedTaken checks the importer repairs a
// tracer quirk: unconditional branches with the taken bit unset would
// violate ENTRACE1's invariants, so the bit is forced.
func TestChampSimUnconditionalForcedTaken(t *testing.T) {
	var b champsimBuilder
	b.branchRec(0x1000, DirectJump, false) // tracer left taken unset
	b.plain(0x2000)
	got, err := importAll(t, b.buf.Bytes(), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].Taken {
		t.Error("unconditional branch not forced taken")
	}
	if got[0].Target != 0x2000 {
		t.Errorf("target %#x, want 0x2000", got[0].Target)
	}
}

func TestChampSimSizeInference(t *testing.T) {
	var b champsimBuilder
	b.plain(0x1000) // next ip delta 2 -> size 2
	b.plain(0x1002) // next ip delta 15 -> size 15
	b.plain(0x1011) // next ip delta 200 -> implausible, default 4
	b.plain(0x10d9) // last record -> default 4
	got, err := importAll(t, b.buf.Bytes(), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint8{2, 15, 4, 4} {
		if got[i].Size != want {
			t.Errorf("record %d: size %d, want %d", i, got[i].Size, want)
		}
	}
}

func TestChampSimMemoryOperands(t *testing.T) {
	var b champsimBuilder
	b.add(csRec{ip: 0x1000, srcMem: []uint64{0x7000_0000}})                          // load
	b.add(csRec{ip: 0x1004, destMem: []uint64{0x7000_1000}})                         // store
	b.add(csRec{ip: 0x1008, srcMem: []uint64{0x7000_2000}, destMem: []uint64{0x99}}) // both
	b.plain(0x100c)
	got, err := importAll(t, b.buf.Bytes(), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].IsLoad || got[0].IsStore || got[0].DataAddr != 0x7000_0000 {
		t.Errorf("load record: %+v", got[0])
	}
	if got[1].IsLoad || !got[1].IsStore || got[1].DataAddr != 0x7000_1000 {
		t.Errorf("store record: %+v", got[1])
	}
	if !got[2].IsLoad || !got[2].IsStore || got[2].DataAddr != 0x7000_2000 {
		t.Errorf("load+store record: %+v (load address must win)", got[2])
	}
}

func TestChampSimSynthesizeData(t *testing.T) {
	var b champsimBuilder
	for i := 0; i < 64; i++ {
		b.plain(0x1000 + uint64(i)*4)
	}
	plain, err := importAll(t, b.buf.Bytes(), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range plain {
		if in.IsLoad || in.IsStore {
			t.Fatalf("record %d: memory op without SynthesizeData", i)
		}
	}
	synth, err := importAll(t, b.buf.Bytes(), ChampSimOptions{SynthesizeData: true})
	if err != nil {
		t.Fatal(err)
	}
	loads := 0
	for _, in := range synth {
		if in.IsLoad {
			loads++
			if in.DataAddr == 0 {
				t.Error("synthetic load without address")
			}
		}
	}
	if loads != 16 { // every 4th of 64 records
		t.Errorf("%d synthetic loads, want 16", loads)
	}
}

func TestChampSimGzipAutoDetect(t *testing.T) {
	var b champsimBuilder
	for i := 0; i < 10; i++ {
		b.plain(0x1000 + uint64(i)*4)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(b.buf.Bytes())
	zw.Close()

	got, err := importAll(t, gz.Bytes(), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("imported %d records from gzip input, want 10", len(got))
	}
}

func TestChampSimRejectsXZ(t *testing.T) {
	xz := append([]byte{0xfd}, []byte("7zXZ\x00 payload")...)
	_, err := NewChampSimReader(bytes.NewReader(xz), ChampSimOptions{})
	if err == nil || !strings.Contains(err.Error(), "xz") {
		t.Errorf("xz input: err = %v, want xz rejection", err)
	}
}

func TestChampSimTruncatedRecord(t *testing.T) {
	var b champsimBuilder
	b.plain(0x1000)
	b.plain(0x1004)
	raw := b.buf.Bytes()[:champsimRecordSize+17] // second record cut off
	_, err := importAll(t, raw, ChampSimOptions{})
	if !errors.Is(err, ErrChampSimTruncated) {
		t.Errorf("err = %v, want ErrChampSimTruncated", err)
	}
}

func TestChampSimInstrLimit(t *testing.T) {
	var b champsimBuilder
	for i := 0; i < 10; i++ {
		b.plain(0x1000 + uint64(i)*4)
	}
	// Exactly at the cap: clean.
	got, err := importAll(t, b.buf.Bytes(), ChampSimOptions{Limits: Limits{MaxInstrs: 10}})
	if err != nil || len(got) != 10 {
		t.Errorf("at-cap import: n=%d err=%v", len(got), err)
	}
	// One under: the 10th record trips the limit.
	_, err = importAll(t, b.buf.Bytes(), ChampSimOptions{Limits: Limits{MaxInstrs: 9}})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Errorf("over-cap import: err = %v, want ErrLimitExceeded", err)
	}
}

func TestChampSimByteLimit(t *testing.T) {
	var b champsimBuilder
	for i := 0; i < 1000; i++ {
		b.plain(0x1000 + uint64(i)*4)
	}
	_, err := importAll(t, b.buf.Bytes(), ChampSimOptions{Limits: Limits{MaxBytes: 1 << 10}})
	var le *LimitError
	if !errors.As(err, &le) || le.What != "payload byte" {
		t.Errorf("err = %v, want payload byte LimitError", err)
	}
}

// TestChampSimRoundTripThroughCodec is the golden-path integration: a
// ChampSim fixture imports to ENTRACE1, the encoded stream decodes to
// the same instructions, and re-encoding is byte-identical — the stored
// form of an imported trace is canonical.
func TestChampSimRoundTripThroughCodec(t *testing.T) {
	var b champsimBuilder
	ip := uint64(0x400000)
	for i := 0; i < 200; i++ {
		switch i % 10 {
		case 3:
			b.branchRec(ip, CondBranch, i%20 == 3)
			if i%20 == 3 {
				ip += 0x40
				continue
			}
		case 7:
			b.branchRec(ip, DirectCall, true)
			ip += 0x1000
			continue
		case 9:
			b.branchRec(ip, Return, true)
			ip -= 0x1000 - 12
			continue
		case 5:
			b.add(csRec{ip: ip, srcMem: []uint64{0x7f00_0000 + uint64(i)*8}})
		default:
			b.plain(ip)
		}
		ip += 4
	}

	var enc bytes.Buffer
	count, err := convertChampSim(&enc, bytes.NewReader(b.buf.Bytes()), ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("converted %d records, want 200", count)
	}

	r, err := NewReader(bytes.NewReader(enc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var decoded []Instruction
	var in Instruction
	for r.Next(&in) {
		decoded = append(decoded, in)
	}
	if r.Err() != nil {
		t.Fatalf("decoding converted stream: %v", r.Err())
	}
	if len(decoded) != 200 {
		t.Fatalf("decoded %d records, want 200", len(decoded))
	}

	re := encodeAll(t, decoded, false)
	if !bytes.Equal(enc.Bytes(), re) {
		t.Error("re-encoding an imported trace is not byte-identical")
	}

	// Converting the same fixture twice is deterministic.
	var enc2 bytes.Buffer
	if _, err := convertChampSim(&enc2, bytes.NewReader(b.buf.Bytes()), ChampSimOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
		t.Error("conversion is not deterministic")
	}
}

func TestConvertChampSimEmptyInput(t *testing.T) {
	var enc bytes.Buffer
	if _, err := convertChampSim(&enc, bytes.NewReader(nil), ChampSimOptions{}); err == nil {
		t.Error("empty champsim input converted without error")
	}
}

// FuzzChampSimConvert feeds arbitrary bytes through the importer: it
// must never panic, and whenever it succeeds the output must be a
// decodable ENTRACE1 stream — the importer's core contract is that
// nothing invalid ever comes out of it.
func FuzzChampSimConvert(f *testing.F) {
	var b champsimBuilder
	b.plain(0x1000)
	b.branchRec(0x1004, CondBranch, true)
	b.plain(0x2000)
	f.Add(b.buf.Bytes(), false)
	f.Add([]byte{}, false)
	f.Add(bytes.Repeat([]byte{0xff}, champsimRecordSize), true)
	f.Add(bytes.Repeat([]byte{0x00}, champsimRecordSize*3), false)
	f.Add([]byte{0x1f, 0x8b, 0x00}, false)

	f.Fuzz(func(t *testing.T, data []byte, synth bool) {
		var enc bytes.Buffer
		count, err := convertChampSim(&enc, bytes.NewReader(data),
			ChampSimOptions{SynthesizeData: synth, Limits: Limits{MaxInstrs: 10_000}})
		if err != nil {
			return
		}
		r, err := NewReader(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("importer emitted an unreadable stream: %v", err)
		}
		var in Instruction
		var n uint64
		for r.Next(&in) {
			n++
		}
		if r.Err() != nil {
			t.Fatalf("importer emitted an invalid record: %v", r.Err())
		}
		if n != count {
			t.Fatalf("importer reported %d records, stream has %d", count, n)
		}
	})
}

// convertChampSim converts a ChampSim trace to ENTRACE1 as Store.Put
// does.
func convertChampSim(dst io.Writer, src io.Reader, opt ChampSimOptions) (uint64, error) {
	cr, err := NewChampSimReader(src, opt)
	if err != nil {
		return 0, err
	}
	return encode(dst, cr)
}
