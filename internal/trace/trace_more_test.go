package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"testing"
)

// TestCopy: Copy stops at n records, at the end of its source or at
// put's first error, and reports a decoding source's error.
func TestCopy(t *testing.T) {
	ins := genStream(1, 10)
	var got []Instruction
	collect := func(in *Instruction) error { got = append(got, *in); return nil }
	for _, n := range []uint64{0, 4, 10, math.MaxUint64} {
		got = nil
		want := ins[:min(n, 10)]
		if c, err := Copy(collect, &SliceSource{Instrs: ins}, n); c != uint64(len(want)) || err != nil || !slices.Equal(got, want) {
			t.Fatalf("Copy(n=%d) = %d, %v, copied %d records; want %d", n, c, err, len(got), len(want))
		}
	}

	stop := errors.New("stop")
	calls := 0
	c, err := Copy(func(*Instruction) error {
		if calls++; calls == 3 {
			return stop
		}
		return nil
	}, &SliceSource{Instrs: ins}, 10)
	if c != 2 || err != stop || calls != 3 {
		t.Fatalf("Copy with a failing put = %d, %v after %d calls; want 2, stop after 3", c, err, calls)
	}

	enc := encodeAll(t, ins, false)
	rd, err := NewReader(bytes.NewReader(enc[:len(enc)-1]))
	if err != nil {
		t.Fatal(err)
	}
	if c, err := Copy(func(*Instruction) error { return nil }, rd, math.MaxUint64); err == nil || c != 9 {
		t.Fatalf("Copy from a truncated trace = %d, %v; want 9 and a decode error", c, err)
	}
}

func TestReaderShortHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("ENT"))); err == nil {
		t.Error("short header accepted")
	}
}

func TestReaderCorruptGzipPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{1, 0, 0, 0}) // compressed flag set
	buf.WriteString("not gzip data")
	if _, err := NewReader(&buf); err == nil {
		t.Error("corrupt gzip payload accepted")
	}
}

func TestReaderFirstRecordWithoutPC(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.Write([]byte{0, 0, 0, 0})
	// A record with no flagPCDelta as the very first record.
	buf.Write([]byte{0x00, 4})
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var in Instruction
	if r.Next(&in) {
		t.Error("record without initial PC decoded")
	}
	if r.Err() == nil {
		t.Error("expected decode error")
	}
}

func TestWriterCloseFlushes(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, true)
	in := Instruction{PC: 0x1000, Size: 4}
	for i := 0; i < 100; i++ {
		if err := w.Write(&in); err != nil {
			t.Fatal(err)
		}
		in.PC += 4
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var out Instruction
	for r.Next(&out) {
		n++
	}
	if n != 100 || r.Err() != nil {
		t.Errorf("read %d records, err %v", n, r.Err())
	}
}

// failingWriter errors after n bytes.
type failingWriter struct{ left int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.left <= 0 {
		return 0, io.ErrClosedPipe
	}
	n := len(p)
	if n > f.left {
		n = f.left
	}
	f.left -= n
	if n < len(p) {
		return n, io.ErrClosedPipe
	}
	return n, nil
}

func TestNewWriterPropagatesHeaderError(t *testing.T) {
	if _, err := NewWriter(&failingWriter{left: 3}, false); err == nil {
		t.Error("header write error swallowed")
	}
	if _, err := NewWriter(&failingWriter{left: 9}, false); err == nil {
		t.Error("reserved-bytes write error swallowed")
	}
}
