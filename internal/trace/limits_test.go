package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// header returns a trace header with the given compression and
// reserved bytes, for hand-crafting malformed streams.
func header(compression byte, reserved [3]byte) []byte {
	return append([]byte(magic), compression, reserved[0], reserved[1], reserved[2])
}

func TestReaderRejectsBadHeader(t *testing.T) {
	cases := []struct {
		name string
		hdr  []byte
		want error
	}{
		{"compression 2", header(2, [3]byte{}), ErrBadCompression},
		{"compression 255", header(255, [3]byte{}), ErrBadCompression},
		{"reserved[0]", header(0, [3]byte{1, 0, 0}), ErrBadReserved},
		{"reserved[2]", header(0, [3]byte{0, 0, 7}), ErrBadReserved},
	}
	for _, tc := range cases {
		if _, err := NewReader(bytes.NewReader(tc.hdr)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	// The two legal shapes still open.
	if _, err := NewReader(bytes.NewReader(header(0, [3]byte{}))); err != nil {
		t.Errorf("uncompressed header rejected: %v", err)
	}
}

// TestReaderRejectsInvalidRecords hand-crafts records violating each
// invariant Writer.Write enforces, and checks the Reader stops with the
// matching typed error — such a stream cannot have come from Writer and
// must never reach the simulator.
func TestReaderRejectsInvalidRecords(t *testing.T) {
	cases := []struct {
		name  string
		flags byte
		size  byte
		want  error
	}{
		{"zero size", flagPCDelta, 0, ErrZeroSize},
		{"branch type 7", flagPCDelta | 7 | flagTaken, 4, ErrBadBranch},
		{"untaken direct jump", flagPCDelta | byte(DirectJump), 4, ErrUntakenUnconditional},
		{"untaken return", flagPCDelta | byte(Return), 4, ErrUntakenUnconditional},
		{"stray data flag", flagPCDelta | flagHasData, 4, ErrStrayData},
		{"load without data", flagPCDelta | flagLoad, 4, ErrMissingData},
		{"store without data", flagPCDelta | flagStore, 4, ErrMissingData},
	}
	for _, tc := range cases {
		stream := append(header(0, [3]byte{}), tc.flags, tc.size, 0 /* pc delta */, 0, 0)
		r, err := NewReader(bytes.NewReader(stream))
		if err != nil {
			t.Fatalf("%s: NewReader: %v", tc.name, err)
		}
		var in Instruction
		if r.Next(&in) {
			t.Errorf("%s: invalid record decoded as %+v", tc.name, in)
			continue
		}
		if !errors.Is(r.Err(), tc.want) {
			t.Errorf("%s: Err = %v, want %v", tc.name, r.Err(), tc.want)
		}
	}
}

// TestReaderInvalidRecordMidStream checks the error surfaces with the
// offending record's index even when valid records precede it.
func TestReaderInvalidRecordMidStream(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	ins := genStream(3, 10)
	for i := range ins {
		if err := w.Write(&ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Append a zero-size record after 10 valid ones.
	stream := append(buf.Bytes(), flagPCDelta, 0, 0)
	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	n := 0
	for r.Next(&in) {
		n++
	}
	if n != 10 {
		t.Errorf("decoded %d records before the bad one, want 10", n)
	}
	if !errors.Is(r.Err(), ErrZeroSize) {
		t.Errorf("Err = %v, want ErrZeroSize", r.Err())
	}
}

func encodeStream(t *testing.T, n int, compress bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, compress)
	if err != nil {
		t.Fatal(err)
	}
	ins := genStream(11, n)
	for i := range ins {
		if err := w.Write(&ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMaxInstrsExactlyAtCapPasses(t *testing.T) {
	enc := encodeStream(t, 100, false)
	r, err := NewReaderLimited(bytes.NewReader(enc), Limits{MaxInstrs: 100})
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	n := 0
	for r.Next(&in) {
		n++
	}
	if r.Err() != nil {
		t.Errorf("stream of exactly MaxInstrs records failed: %v", r.Err())
	}
	if n != 100 {
		t.Errorf("decoded %d records, want 100", n)
	}
}

func TestMaxInstrsOneOverCapFails(t *testing.T) {
	enc := encodeStream(t, 101, false)
	r, err := NewReaderLimited(bytes.NewReader(enc), Limits{MaxInstrs: 100})
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	for r.Next(&in) {
	}
	err = r.Err()
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("Err = %v, want ErrLimitExceeded", err)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.What != "instruction" || le.Limit != 100 {
		t.Errorf("LimitError = %+v, want instruction/100", le)
	}
	if r.count != 100 {
		t.Errorf("Count = %d after limit, want 100", r.count)
	}
}

// TestMaxBytesStopsGzipBomb checks the byte cap measures decompressed
// payload: a small on-wire gzip stream expanding past the cap fails
// mid-decode instead of being materialized.
func TestMaxBytesStopsGzipBomb(t *testing.T) {
	// 200k sequential records compress extremely well (~2 bytes/record
	// raw, far less after gzip) but expand to ~400 KB of payload.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, true)
	pc := uint64(0x400000)
	for i := 0; i < 200_000; i++ {
		in := Instruction{PC: pc, Size: 4}
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
		pc += 4
	}
	w.Close()

	r, err := NewReaderLimited(bytes.NewReader(buf.Bytes()), Limits{MaxBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	for r.Next(&in) {
	}
	err = r.Err()
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("gzip bomb decoded cleanly (read %d records), want ErrLimitExceeded", r.count)
	}
	var le *LimitError
	if !errors.As(err, &le) || le.What != "payload byte" {
		t.Errorf("LimitError = %+v, want payload byte cap", le)
	}
	// The limit must have fired near the cap, not after materializing
	// the whole stream (64 KB of payload is ~32k sequential records).
	if r.count >= 100_000 {
		t.Errorf("decoded %d records before the byte cap fired", r.count)
	}
}

func TestMaxBytesUnderCapPasses(t *testing.T) {
	enc := encodeStream(t, 500, true)
	r, err := NewReaderLimited(bytes.NewReader(enc), Limits{MaxBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	n := 0
	for r.Next(&in) {
		n++
	}
	if r.Err() != nil || n != 500 {
		t.Errorf("under-cap stream: n=%d err=%v", n, r.Err())
	}
}

func TestWriterRejectsBadBranchType(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, false)
	if err := w.Write(&Instruction{PC: 1, Size: 4, Branch: BranchType(7), Taken: true}); err == nil {
		t.Error("invalid branch type accepted by Writer")
	}
}

func TestReaderTruncatedVarint(t *testing.T) {
	// A record announcing an explicit PC delta, with the varint cut off.
	stream := append(header(0, [3]byte{}), flagPCDelta, 4, 0x80)
	r, err := NewReader(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	if r.Next(&in) {
		t.Fatal("truncated varint decoded")
	}
	if r.Err() == nil {
		t.Error("truncated varint: Err is nil")
	}
}

// TestLimitErrorUnwrap pins the error contract callers rely on: As to
// *LimitError for the message, Is to ErrLimitExceeded for the class.
func TestLimitErrorUnwrap(t *testing.T) {
	var err error = &LimitError{What: "instruction", Limit: 7}
	if !errors.Is(err, ErrLimitExceeded) {
		t.Error("LimitError does not unwrap to ErrLimitExceeded")
	}
	if err.Error() == "" {
		t.Error("empty LimitError message")
	}
	var le *LimitError
	if !errors.As(io.EOF, &le) {
		_ = le // EOF must not match; nothing to assert beyond no panic
	}
}
