package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"testing"

	"entangling/internal/trace"
)

// benchWindow is the warmup + measure window of the benchmark's sweeps.
const benchWindow = 600_000

// mustPack packs ins whole.
func mustPack(t *testing.T, ins []trace.Instruction) *trace.Packed {
	t.Helper()
	tr, err := packSource("test", &trace.SliceSource{Instrs: ins}, uint64(len(ins)), trace.NewPacker(len(ins), 0))
	if err != nil {
		t.Fatal(err)
	}
	return tr.Packed
}

// TestPackedSuitesRoundTrip: every record of the shipped suites at the
// sweep window packs and decodes back to exactly the record the walker
// produced. serverless-cold's cold restart moves every code address,
// so its stream needs the explicit-PC escape past the first record.
func TestPackedSuitesRoundTrip(t *testing.T) {
	var specs []Spec
	specs = append(specs, CVPSuite(2)...)
	specs = append(specs, CloudSuite()...)
	specs = append(specs, AdversarialSuite()...)
	for _, spec := range specs {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			w, err := spec.New()
			if err != nil {
				t.Fatal(err)
			}
			want := make([]trace.Instruction, benchWindow)
			for i := range want {
				w.Next(&want[i])
			}
			p := mustPack(t, want)
			src := trace.NewPackedSource(p)
			var got trace.Instruction
			for i := range want {
				if !src.Next(&got) || got != want[i] {
					t.Fatalf("record %d: packed %+v, walked %+v", i, got, want[i])
				}
			}
			if src.Next(&got) {
				t.Fatalf("packed stream longer than %d", benchWindow)
			}
			if spec.Name == "serverless-cold" {
				var later int
				for _, op := range p.Ops[1:] {
					if op&trace.OpEscape != 0 {
						later++
					}
				}
				if later == 0 {
					t.Errorf("no escape after the first record; the cold restart is not exercised")
				}
			}
		})
	}
}

// TestPackedTraceSizes: an uploaded ENTRACE1 stream with instruction
// sizes other than 4 materializes to exactly the records it decodes to.
func TestPackedTraceSizes(t *testing.T) {
	ins := make([]trace.Instruction, 3000)
	pc := uint64(0x401000)
	for i := range ins {
		in := trace.Instruction{PC: pc, Size: uint8(1 + i%15)}
		switch i % 7 {
		case 3:
			in.Branch, in.Taken, in.Target = trace.DirectJump, true, pc+0x40
		case 5:
			in.IsLoad, in.DataAddr = true, 0x7f0000+uint64(i)
		}
		ins[i] = in
		pc = in.NextPC()
	}
	var buf bytes.Buffer
	tw, _ := trace.NewWriter(&buf, true)
	for i := range ins {
		if err := tw.Write(&ins[i]); err != nil {
			t.Fatal(err)
		}
	}
	tw.Close()
	spec := TraceSpec("trace:sizes", "5e5", func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(buf.Bytes())), nil
	})
	tr, err := NewTraceCache().Get(spec, uint64(len(ins)))
	if err != nil {
		t.Fatal(err)
	}
	got := tr.Packed.Expand()
	if len(got) != len(ins) {
		t.Fatalf("materialized %d records, want %d", len(got), len(ins))
	}
	for i := range ins {
		if got[i] != ins[i] {
			t.Fatalf("record %d: materialized %+v, want %+v", i, got[i], ins[i])
		}
	}
}

// TestPackSourceFailsOnUnrepresentable: a record the packed form
// cannot hold fails the build with the packer's typed error, named by
// workload, instead of being dropped or truncated.
func TestPackSourceFailsOnUnrepresentable(t *testing.T) {
	src := &trace.SliceSource{Instrs: []trace.Instruction{
		{PC: 0, Size: 4},
		{PC: 4, Size: 4, Target: 0x40},
	}}
	tr, err := packSource("stray", src, 10, trace.NewPacker(2, 0))
	if !errors.Is(err, trace.ErrStrayTarget) || tr != nil {
		t.Fatalf("packSource = %v, %v; want nil and ErrStrayTarget", tr, err)
	}
	if want := "workload stray: "; err.Error()[:len(want)] != want {
		t.Errorf("error %q does not name the workload", err)
	}
}

// TestTraceResidentBytes is the memory gate on cached traces: the
// sweep's traces must stay packed. At 32-byte records this fails.
func TestTraceResidentBytes(t *testing.T) {
	const maxBytesPerInstr = 6
	c := NewTraceCache()
	specs := CVPSuite(2)
	var sum uint64
	for _, spec := range specs {
		c.Reserve(spec, benchWindow, 1)
		tr, err := c.Get(spec, benchWindow)
		if err != nil {
			t.Fatal(err)
		}
		sum += tr.Packed.Bytes()
	}
	got := c.ResidentBytes()
	if got != sum {
		t.Fatalf("ResidentBytes = %d, want the traces' sum %d", got, sum)
	}
	perInstr := float64(got) / float64(len(specs)*benchWindow)
	t.Logf("%d traces of %d instructions: %d resident bytes, %.2f B/instr", len(specs), benchWindow, got, perInstr)
	if perInstr > maxBytesPerInstr {
		t.Errorf("cached traces hold %.2f bytes per instruction, ceiling %d", perInstr, maxBytesPerInstr)
	}
	for _, spec := range specs {
		c.Release(spec, benchWindow)
	}
	if got := c.ResidentBytes(); got != 0 {
		t.Errorf("ResidentBytes = %d after every release, want 0", got)
	}
}

// pinnedStreamSHA is the SHA-256 of the packed 600k-record streams of
// CVPSuite(2), CloudSuite() and AdversarialSuite(), in that order: per
// stream the Ops bytes, then each word as 8 little-endian bytes.
const pinnedStreamSHA = "5733d3b7e17c3f0641458bd56bce3072b3bc95d5e2ae9ebca76fc01e51484e92"

// TestWalkerStreamsPinned pins every record of every shipped walker
// spec at the sweep window, so a change to how the walker draws or
// decides cannot move a single bit of any stream unnoticed.
func TestWalkerStreamsPinned(t *testing.T) {
	var specs []Spec
	specs = append(specs, CVPSuite(2)...)
	specs = append(specs, CloudSuite()...)
	specs = append(specs, AdversarialSuite()...)
	h := sha256.New()
	var word [8]byte
	for _, spec := range specs {
		tr, err := pack(spec, benchWindow, false)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(tr.Packed.Ops)
		for _, w := range tr.Packed.Words {
			binary.LittleEndian.PutUint64(word[:], w)
			h.Write(word[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedStreamSHA {
		t.Fatalf("walker streams hash to %s, pinned %s", got, pinnedStreamSHA)
	}
}

// BenchmarkTraceBuild times what a sweep's set-up pays once per trace:
// the pinned build (TraceCache.Pin's) of each CVPSuite(2) spec at the
// sweep window, program construction and the trim included. ns/instr
// is per built record.
func BenchmarkTraceBuild(b *testing.B) {
	specs := CVPSuite(2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, spec := range specs {
			if _, err := pack(spec, benchWindow, true); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(specs)*benchWindow), "ns/instr")
}
