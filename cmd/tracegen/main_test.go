package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"entangling/internal/trace"
	"entangling/internal/workload"
)

// walker returns an unbounded synthetic record stream, as the
// generate path writes.
func walker(t *testing.T) trace.Source {
	t.Helper()
	p := workload.Preset(workload.Srv)
	p.Seed = 3
	prog, err := workload.BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	return workload.NewWalker(prog)
}

// champSim returns a reader over n plain ChampSim records (a 64-byte
// record whose first 8 bytes are the IP), as the -import path reads.
// cut drops that many bytes from the end of the input.
func champSim(t *testing.T, n, cut int) trace.Source {
	t.Helper()
	buf := make([]byte, 64*n)
	for i := range n {
		binary.LittleEndian.PutUint64(buf[64*i:], 0x40_0000+4*uint64(i))
	}
	cr, err := trace.NewChampSimReader(bytes.NewReader(buf[:len(buf)-cut]), trace.ChampSimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return cr
}

// cancelAfter cancels a context once its source has yielded n records.
type cancelAfter struct {
	trace.Source
	n      int
	cancel context.CancelFunc
}

func (s *cancelAfter) Next(in *trace.Instruction) bool {
	if s.n--; s.n == 0 {
		s.cancel()
	}
	return s.Source.Next(in)
}

// badRecord yields one record Writer refuses after n good ones.
type badRecord struct {
	trace.Source
	n int
}

func (s *badRecord) Next(in *trace.Instruction) bool {
	ok := s.Source.Next(in)
	if s.n--; s.n == 0 {
		in.Size = 0
	}
	return ok
}

// TestWriteTraceLeavesNoPartialFile: whether writeTrace's context is
// canceled before or during the write, or its source fails, no output
// file is left behind, on the generate path and on the -import path.
func TestWriteTraceLeavesNoPartialFile(t *testing.T) {
	for _, tc := range []struct {
		name         string
		cancelBefore bool
		src          func(t *testing.T, cancel context.CancelFunc) trace.Source
		n            uint64
		want         error // nil: any error
	}{
		{"generate/canceled", true, func(t *testing.T, _ context.CancelFunc) trace.Source {
			return walker(t)
		}, 1000, context.Canceled},
		{"generate/canceled mid-write", false, func(t *testing.T, cancel context.CancelFunc) trace.Source {
			return &cancelAfter{Source: walker(t), n: 100, cancel: cancel}
		}, 3 * pollEvery, context.Canceled},
		{"generate/bad record", false, func(t *testing.T, _ context.CancelFunc) trace.Source {
			return &badRecord{Source: walker(t), n: 500}
		}, 1000, nil},
		{"import/canceled", true, func(t *testing.T, _ context.CancelFunc) trace.Source {
			return champSim(t, 1000, 0)
		}, math.MaxUint64, context.Canceled},
		{"import/truncated input", false, func(t *testing.T, _ context.CancelFunc) trace.Source {
			return champSim(t, 1000, 10)
		}, math.MaxUint64, trace.ErrChampSimTruncated},
		{"import/empty input", false, func(t *testing.T, _ context.CancelFunc) trace.Source {
			return champSim(t, 0, 0)
		}, math.MaxUint64, nil},
	} {
		for _, gz := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/gzip=%v", tc.name, gz), func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.cancelBefore {
					cancel()
				}
				path := filepath.Join(t.TempDir(), "out.trace")
				count, _, err := writeTrace(ctx, path, gz, tc.src(t, cancel), tc.n)
				if err == nil || tc.want != nil && !errors.Is(err, tc.want) {
					t.Fatalf("writeTrace = %d, %v; want an error matching %v", count, err, tc.want)
				}
				if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
					t.Fatalf("%s left behind after %q (stat: %v)", path, err, serr)
				}
			})
		}
	}
}

// TestWriteTraceWritesWholeTrace: a write that is not interrupted
// keeps its file, and the file reads back every record.
func TestWriteTraceWritesWholeTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  trace.Source
		n    uint64
		want uint64
	}{
		{"generate", walker(t), pollEvery + 7, pollEvery + 7},
		{"import", champSim(t, 1000, 0), math.MaxUint64, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "out.trace")
			count, size, err := writeTrace(context.Background(), path, true, tc.src, tc.n)
			if err != nil || count != tc.want {
				t.Fatalf("writeTrace = %d, %v; want %d records", count, err, tc.want)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if st, err := f.Stat(); err != nil || st.Size() != size {
				t.Fatalf("file size %v (%v), writeTrace reported %d", st, err, size)
			}
			rd, err := trace.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			read, err := trace.Copy(func(*trace.Instruction) error { return nil }, rd, math.MaxUint64)
			if err != nil || read != tc.want {
				t.Fatalf("read back %d records, %v; want %d", read, err, tc.want)
			}
		})
	}
}
