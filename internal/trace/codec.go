package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// File format
//
//	header:  magic "ENTRACE1" (8 bytes), reserved uint32 (0)
//	records: each instruction is
//	         flags byte:
//	             bits 0-2  BranchType
//	             bit  3    Taken
//	             bit  4    IsLoad
//	             bit  5    IsStore
//	             bit  6    has explicit PC delta (else PC = prev.NextPC())
//	             bit  7    has DataAddr delta
//	         size byte (instruction length in bytes)
//	         [pc zigzag-varint delta from prev.NextPC()]   if bit 6
//	         [target zigzag-varint delta from PC]          if branch && taken
//	         [data zigzag-varint delta from prev data]     if bit 7
//
// Sequential instructions on the fall-through path therefore cost two
// bytes. The format is purely little-endian varints from encoding/binary.

const magic = "ENTRACE1"

const (
	flagTaken    = 1 << 3
	flagLoad     = 1 << 4
	flagStore    = 1 << 5
	flagPCDelta  = 1 << 6
	flagHasData  = 1 << 7
	branchMask   = 0x7
	maxVarintLen = binary.MaxVarintLen64
)

// ErrBadMagic is returned when a trace file does not start with the
// expected header.
var ErrBadMagic = errors.New("trace: bad magic (not an ENTRACE1 file)")

// Header errors. The header has exactly two legal shapes (compression
// byte 0 or 1, reserved bytes all zero); anything else is a future
// format revision or corruption, and decoding it as today's format
// would produce garbage silently.
var (
	// ErrBadCompression marks a compression byte other than 0
	// (uncompressed) or 1 (gzip).
	ErrBadCompression = errors.New("trace: unknown compression byte")
	// ErrBadReserved marks nonzero reserved header bytes.
	ErrBadReserved = errors.New("trace: nonzero reserved header bytes")
)

// Record-invariant errors, surfaced via Reader.Err. These mirror the
// invariants Writer.Write enforces on encode: a stream that trips one
// was not produced by Writer and must not reach the simulator (a
// zero-size record alone would pin the fall-through path at one PC
// forever).
var (
	// ErrZeroSize marks a record with instruction size zero
	// (NextPC() == PC on the fall-through path).
	ErrZeroSize = errors.New("trace: record has zero instruction size")
	// ErrBadBranch marks a record whose branch-type bits exceed Return.
	ErrBadBranch = errors.New("trace: record has invalid branch type")
	// ErrUntakenUnconditional marks an unconditional branch encoded as
	// not taken.
	ErrUntakenUnconditional = errors.New("trace: unconditional branch not taken")
	// ErrStrayData marks a data-address flag on a record that is
	// neither a load nor a store.
	ErrStrayData = errors.New("trace: data address on a non-memory record")
	// ErrMissingData marks a load/store record without a data-address
	// field.
	ErrMissingData = errors.New("trace: memory op without data address")
)

// ErrLimitExceeded is the sentinel every *LimitError matches
// (errors.Is); callers that only care whether a stream blew its budget
// test against it.
var ErrLimitExceeded = errors.New("trace: decode limit exceeded")

// LimitError reports a stream cut off mid-decode by Limits: which cap
// was hit and its value. It wraps ErrLimitExceeded.
type LimitError struct {
	// What names the exhausted resource: "instruction" or "payload byte".
	What string
	// Limit is the configured cap.
	Limit uint64
}

func (e *LimitError) Error() string {
	return fmt.Sprintf("trace: stream exceeds %s limit of %d", e.What, e.Limit)
}

func (e *LimitError) Unwrap() error { return ErrLimitExceeded }

// Limits caps what a streaming decode may consume, enforced record by
// record so an over-budget stream (a gzip bomb, a billion-record file)
// is rejected at the cap instead of materialized first. Zero fields
// mean "no limit".
type Limits struct {
	// MaxInstrs caps decoded records. A stream with exactly MaxInstrs
	// records decodes cleanly; one more record fails with a LimitError.
	MaxInstrs uint64
	// MaxBytes caps consumed payload bytes, measured after gzip
	// expansion (the allocation-relevant size, immune to compression
	// ratio games).
	MaxBytes uint64
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer encodes instructions to an output stream.
type Writer struct {
	w        *bufio.Writer
	gz       *gzip.Writer
	buf      [2 + 3*maxVarintLen]byte
	prevNext uint64 // prev.NextPC()
	prevData uint64
	started  bool
	count    uint64
}

// NewWriter creates a Writer over w. If compress is true the payload is
// gzip-compressed (the header stays uncompressed so sniffing works).
func NewWriter(w io.Writer, compress bool) (*Writer, error) {
	if _, err := io.WriteString(w, magic); err != nil {
		return nil, err
	}
	var hdr [4]byte
	if compress {
		hdr[0] = 1
	}
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, err
	}
	tw := &Writer{}
	if compress {
		tw.gz = gzip.NewWriter(w)
		tw.w = bufio.NewWriterSize(tw.gz, 1<<16)
	} else {
		tw.w = bufio.NewWriterSize(w, 1<<16)
	}
	return tw, nil
}

// Write appends one instruction record.
func (w *Writer) Write(in *Instruction) error {
	if in.Size == 0 {
		return fmt.Errorf("trace: instruction at %#x has zero size", in.PC)
	}
	if in.Branch > Return {
		return fmt.Errorf("trace: instruction at %#x has invalid branch type %d", in.PC, in.Branch)
	}
	if in.Branch.IsUnconditional() && !in.Taken {
		return fmt.Errorf("trace: unconditional branch at %#x not taken", in.PC)
	}
	flags := byte(in.Branch) & branchMask
	if in.Taken {
		flags |= flagTaken
	}
	if in.IsLoad {
		flags |= flagLoad
	}
	if in.IsStore {
		flags |= flagStore
	}
	explicitPC := !w.started || in.PC != w.prevNext
	if explicitPC {
		flags |= flagPCDelta
	}
	hasData := in.IsLoad || in.IsStore
	if hasData {
		flags |= flagHasData
	}
	b := w.buf[:0]
	b = append(b, flags, in.Size)
	if explicitPC {
		b = binary.AppendUvarint(b, zigzag(int64(in.PC)-int64(w.prevNext)))
	}
	if in.Branch.IsBranch() && in.Taken {
		b = binary.AppendUvarint(b, zigzag(int64(in.Target)-int64(in.PC)))
	}
	if hasData {
		b = binary.AppendUvarint(b, zigzag(int64(in.DataAddr)-int64(w.prevData)))
		w.prevData = in.DataAddr
	}
	if _, err := w.w.Write(b); err != nil {
		return err
	}
	w.prevNext = in.NextPC()
	w.started = true
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Close flushes buffered data. It does not close the underlying writer.
func (w *Writer) Close() error {
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.gz != nil {
		return w.gz.Close()
	}
	return nil
}

// Reader decodes a trace stream produced by Writer. It implements
// Source. Every record is validated against the same invariants
// Writer.Write enforces; a violating record stops the stream with a
// typed error from Reader.Err.
type Reader struct {
	r        *bufio.Reader
	raw      *countingReader
	lim      Limits
	count    uint64
	prevNext uint64
	prevData uint64
	started  bool
	err      error
}

// countingReader counts payload bytes handed to the decode buffer
// (after gzip expansion), so Limits.MaxBytes measures what the decoder
// actually consumes regardless of on-wire compression.
type countingReader struct {
	r io.Reader
	n uint64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += uint64(n)
	return n, err
}

// NewReader opens a trace stream, validating the header and handling
// the optional gzip payload.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderLimited(r, Limits{})
}

// NewReaderLimited is NewReader with streaming decode limits: the
// caps are checked as records are decoded, so an over-budget stream
// fails (via Reader.Err, with a *LimitError) after consuming at most
// one buffer beyond the cap — it is never materialized.
func NewReaderLimited(r io.Reader, lim Limits) (*Reader, error) {
	hdr := make([]byte, len(magic)+4)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, ErrBadMagic
	}
	compression := hdr[len(magic)]
	if compression > 1 {
		return nil, fmt.Errorf("trace: header compression byte %d: %w", compression, ErrBadCompression)
	}
	if rest := hdr[len(magic)+1:]; rest[0] != 0 || rest[1] != 0 || rest[2] != 0 {
		return nil, fmt.Errorf("trace: header reserved bytes %02x%02x%02x: %w",
			rest[0], rest[1], rest[2], ErrBadReserved)
	}
	var body io.Reader = r
	if compression == 1 {
		gz, err := gzip.NewReader(r)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip payload: %w", err)
		}
		body = gz
	}
	raw := &countingReader{r: body}
	return &Reader{r: bufio.NewReaderSize(raw, 1<<16), raw: raw, lim: lim}, nil
}

// Next implements Source. After Next returns false, Err distinguishes a
// clean end of stream from a decode error.
func (r *Reader) Next(in *Instruction) bool {
	if r.err != nil {
		return false
	}
	if r.lim.MaxInstrs > 0 && r.count >= r.lim.MaxInstrs {
		// At the cap: a clean EOF here is a stream of exactly
		// MaxInstrs records, which passes; any further byte fails.
		if _, err := r.r.Peek(1); err == nil {
			r.err = &LimitError{What: "instruction", Limit: r.lim.MaxInstrs}
		} else if err != io.EOF {
			r.err = err
		}
		return false
	}
	flags, err := r.r.ReadByte()
	if err != nil {
		if err != io.EOF {
			r.err = err
		}
		return false
	}
	size, err := r.r.ReadByte()
	if err != nil {
		r.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	*in = Instruction{
		Size:    size,
		Branch:  BranchType(flags & branchMask),
		Taken:   flags&flagTaken != 0,
		IsLoad:  flags&flagLoad != 0,
		IsStore: flags&flagStore != 0,
	}
	// Enforce the Writer's invariants before consuming any deltas: a
	// record that violates them cannot have come from Writer, and
	// letting it through would feed the CPU model states it cannot
	// represent (a zero-size instruction never advances the PC).
	switch {
	case in.Size == 0:
		r.err = fmt.Errorf("trace: record %d: %w", r.count, ErrZeroSize)
	case in.Branch > Return:
		r.err = fmt.Errorf("trace: record %d: branch type %d: %w", r.count, in.Branch, ErrBadBranch)
	case in.Branch.IsUnconditional() && !in.Taken:
		r.err = fmt.Errorf("trace: record %d: %s: %w", r.count, in.Branch, ErrUntakenUnconditional)
	case flags&flagHasData != 0 && !in.IsLoad && !in.IsStore:
		r.err = fmt.Errorf("trace: record %d: %w", r.count, ErrStrayData)
	case flags&flagHasData == 0 && (in.IsLoad || in.IsStore):
		r.err = fmt.Errorf("trace: record %d: %w", r.count, ErrMissingData)
	}
	if r.err != nil {
		return false
	}
	if flags&flagPCDelta != 0 {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("trace: truncated pc delta: %w", err)
			return false
		}
		in.PC = uint64(int64(r.prevNext) + unzigzag(d))
	} else {
		if !r.started {
			r.err = errors.New("trace: first record lacks explicit PC")
			return false
		}
		in.PC = r.prevNext
	}
	if in.Branch.IsBranch() && in.Taken {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("trace: truncated target delta: %w", err)
			return false
		}
		in.Target = uint64(int64(in.PC) + unzigzag(d))
	}
	if flags&flagHasData != 0 {
		d, err := binary.ReadUvarint(r.r)
		if err != nil {
			r.err = fmt.Errorf("trace: truncated data delta: %w", err)
			return false
		}
		in.DataAddr = uint64(int64(r.prevData) + unzigzag(d))
		r.prevData = in.DataAddr
	}
	r.prevNext = in.NextPC()
	r.started = true
	r.count++
	if r.lim.MaxBytes > 0 {
		// Bytes actually consumed by decoding, not read ahead into the
		// buffer — the check must not trip on buffering alone.
		if used := r.raw.n - uint64(r.r.Buffered()); used > r.lim.MaxBytes {
			r.err = &LimitError{What: "payload byte", Limit: r.lim.MaxBytes}
			return false
		}
	}
	return true
}

// Err returns the first decode error encountered, or nil on clean EOF.
func (r *Reader) Err() error { return r.err }

// Describe returns a short human-readable dump of an instruction,
// used by cmd/tracegen's inspect mode.
func Describe(in *Instruction) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pc=%#012x size=%d", in.PC, in.Size)
	if in.Branch.IsBranch() {
		fmt.Fprintf(&sb, " %s", in.Branch)
		if in.Taken {
			fmt.Fprintf(&sb, " -> %#012x", in.Target)
		} else {
			sb.WriteString(" not-taken")
		}
	}
	if in.IsLoad {
		fmt.Fprintf(&sb, " load %#012x", in.DataAddr)
	}
	if in.IsStore {
		fmt.Fprintf(&sb, " store %#012x", in.DataAddr)
	}
	return sb.String()
}
