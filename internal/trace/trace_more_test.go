package trace

import (
	"bytes"
	"io"
	"testing"
)

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
