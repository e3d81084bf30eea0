package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// This file imports ChampSim traces — the format the paper's own
// methodology evaluates on (§IV-A) — into the ENTRACE1 stream the
// harness consumes. A ChampSim trace is a flat sequence of fixed
// 64-byte records with no header and no branch classification: each
// record carries the instruction pointer, a branch/taken pair, the
// architectural registers read and written, and up to six memory
// operand addresses. Everything ENTRACE1 needs beyond that is
// reconstructed here:
//
//   - the branch *type* (conditional, call, return, ...) from
//     ChampSim's register heuristics: which of {stack pointer, flags,
//     instruction pointer, other} the instruction reads and writes,
//   - the branch *target* and the instruction *size* from one record
//     of lookahead (ChampSim derives both the same way at load time),
//   - optionally, synthetic data addresses for traces whose memory
//     operands were stripped, so the load/store side of the pipeline
//     still sees realistic pressure.
//
// The conversion is streaming: one record in flight plus one record of
// lookahead, so arbitrarily large inputs convert in constant memory
// and decode Limits cut off hostile inputs mid-stream.

// ChampSim's fixed record geometry (input_instr in ChampSim's
// trace-format headers: x86 traces, 2 destination + 4 source operands).
const (
	champsimRecordSize = 64
	champsimNumDest    = 2
	champsimNumSrc     = 4
)

// ChampSim's special register identifiers, used by its branch-type
// heuristics.
const (
	champsimRegSP    = 6  // REG_STACK_POINTER
	champsimRegFlags = 25 // REG_FLAGS
	champsimRegIP    = 26 // REG_INSTRUCTION_POINTER
)

// ErrChampSimTruncated marks a ChampSim input whose byte length is not
// a whole number of 64-byte records.
var ErrChampSimTruncated = errors.New("trace: truncated champsim record")

// champsimRecord is one decoded 64-byte ChampSim record.
type champsimRecord struct {
	ip      uint64
	branch  bool
	taken   bool
	destReg [champsimNumDest]uint8
	srcReg  [champsimNumSrc]uint8
	destMem [champsimNumDest]uint64
	srcMem  [champsimNumSrc]uint64
}

func parseChampsimRecord(b []byte, rec *champsimRecord) {
	rec.ip = binary.LittleEndian.Uint64(b[0:8])
	rec.branch = b[8] != 0
	rec.taken = b[9] != 0
	rec.destReg[0], rec.destReg[1] = b[10], b[11]
	copy(rec.srcReg[:], b[12:16])
	for i := 0; i < champsimNumDest; i++ {
		rec.destMem[i] = binary.LittleEndian.Uint64(b[16+8*i : 24+8*i])
	}
	for i := 0; i < champsimNumSrc; i++ {
		rec.srcMem[i] = binary.LittleEndian.Uint64(b[32+8*i : 40+8*i])
	}
}

// classify maps a ChampSim branch record to a BranchType using the
// register heuristics ChampSim itself applies at trace load: the
// combination of {SP, IP, flags, other} reads and {SP, IP} writes
// distinguishes calls, returns, jumps and conditional branches.
func (rec *champsimRecord) classify() BranchType {
	if !rec.branch {
		return NotBranch
	}
	var readsSP, readsIP, readsFlags, readsOther bool
	for _, r := range rec.srcReg {
		switch r {
		case 0:
		case champsimRegSP:
			readsSP = true
		case champsimRegIP:
			readsIP = true
		case champsimRegFlags:
			readsFlags = true
		default:
			readsOther = true
		}
	}
	var writesSP, writesIP bool
	for _, r := range rec.destReg {
		switch r {
		case champsimRegSP:
			writesSP = true
		case champsimRegIP:
			writesIP = true
		}
	}
	switch {
	case readsSP && readsIP && writesSP && writesIP && !readsOther:
		return DirectCall
	case readsSP && readsIP && writesSP && writesIP && readsOther:
		return IndirectCall
	case readsSP && !readsIP && writesSP && writesIP:
		return Return
	case writesIP && !readsSP && !readsFlags && !readsOther:
		return DirectJump
	case writesIP && !readsSP && !readsFlags && readsOther:
		return IndirectJump
	case writesIP && readsFlags:
		return CondBranch
	default:
		// ChampSim's BRANCH_OTHER bucket: a branch the heuristics
		// cannot place. Taken records behave like indirect jumps (the
		// front-end cannot compute the target); untaken ones can only
		// be represented as conditional.
		if rec.taken {
			return IndirectJump
		}
		return CondBranch
	}
}

// ChampSimOptions configures a ChampSim import.
type ChampSimOptions struct {
	// SynthesizeData, when set, gives memory-stripped records (traces
	// whose tracer dropped operand addresses) deterministic synthetic
	// load addresses over a small heap window, so the backend sees
	// realistic (if invented) data pressure. Records that carry real
	// addresses always keep them.
	SynthesizeData bool
	// Limits bounds the import: MaxInstrs caps converted records,
	// MaxBytes caps *input* bytes consumed (after gzip expansion).
	Limits Limits
}

// ChampSimReader streams Instructions decoded from a ChampSim trace.
// It implements Source; Err must be checked after Next returns false.
type ChampSimReader struct {
	r        *bufio.Reader
	raw      *countingReader
	opt      ChampSimOptions
	buf      [champsimRecordSize]byte
	cur      champsimRecord
	next     champsimRecord
	haveCur  bool
	havePeek bool
	count    uint64
	synth    uint64 // synthetic data-address stream position
	err      error
}

// NewChampSimReader opens a ChampSim trace stream, auto-detecting gzip
// compression (ChampSim traces ship as .gz or .xz; xz is not in the
// stdlib and is rejected with a clear error).
func NewChampSimReader(r io.Reader, opt ChampSimOptions) (*ChampSimReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, err := br.Peek(6)
	if err != nil && err != io.EOF && len(head) < 2 {
		return nil, fmt.Errorf("trace: reading champsim input: %w", err)
	}
	var body io.Reader = br
	if len(head) >= 2 && head[0] == 0x1f && head[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: opening gzip champsim input: %w", err)
		}
		body = gz
	} else if len(head) >= 5 && head[0] == 0xfd && string(head[1:5]) == "7zXZ" {
		return nil, errors.New("trace: xz-compressed champsim traces are not supported; decompress first")
	}
	raw := &countingReader{r: body}
	return &ChampSimReader{r: bufio.NewReaderSize(raw, 1<<16), raw: raw, opt: opt}, nil
}

// Count returns the number of instructions emitted so far.
func (c *ChampSimReader) Count() uint64 { return c.count }

// Err returns the first decode error, or nil on clean end of input.
func (c *ChampSimReader) Err() error { return c.err }

// readRecord fills rec with the next 64-byte record, reporting false
// on clean EOF or error.
func (c *ChampSimReader) readRecord(rec *champsimRecord) bool {
	n, err := io.ReadFull(c.r, c.buf[:])
	if err == io.EOF {
		return false
	}
	if err != nil {
		c.err = fmt.Errorf("trace: champsim record %d (%d of 64 bytes): %w",
			c.count, n, ErrChampSimTruncated)
		return false
	}
	parseChampsimRecord(c.buf[:], rec)
	return true
}

// Next implements Source, converting one ChampSim record per call.
func (c *ChampSimReader) Next(in *Instruction) bool {
	if c.err != nil {
		return false
	}
	if c.opt.Limits.MaxInstrs > 0 && c.count >= c.opt.Limits.MaxInstrs {
		// haveCur means a record beyond the cap is already in hand
		// (the lookahead consumed it); a fresh byte in the stream means
		// the same. Either way the input exceeds the cap.
		if _, err := c.r.Peek(1); c.haveCur || err == nil {
			c.err = &LimitError{What: "instruction", Limit: c.opt.Limits.MaxInstrs}
		}
		return false
	}
	if !c.haveCur {
		if !c.readRecord(&c.cur) {
			return false
		}
		c.haveCur = true
	}
	c.havePeek = c.readRecord(&c.next)
	if c.err != nil {
		return false
	}
	if c.opt.Limits.MaxBytes > 0 {
		if used := c.raw.n - uint64(c.r.Buffered()); used > c.opt.Limits.MaxBytes {
			c.err = &LimitError{What: "payload byte", Limit: c.opt.Limits.MaxBytes}
			return false
		}
	}
	c.convert(in)
	c.cur, c.haveCur = c.next, c.havePeek
	c.count++
	return true
}

// convert builds the Instruction for c.cur, using c.next (when
// available) to infer the instruction size and the taken-branch
// target, exactly as ChampSim reconstructs them at load time.
func (c *ChampSimReader) convert(in *Instruction) {
	rec := &c.cur
	*in = Instruction{PC: rec.ip, Size: 4}
	if c.havePeek {
		// The fall-through distance to the next fetched instruction is
		// the size for sequential code; implausible gaps (taken
		// branches, trace filtering) keep the default.
		if d := c.next.ip - rec.ip; d >= 1 && d <= 15 && !(rec.branch && rec.taken) {
			in.Size = uint8(d)
		}
	}
	if rec.branch {
		in.Branch = rec.classify()
		// The taken bit comes from the trace; unconditional types are
		// taken by definition even when the tracer left the bit unset
		// (ENTRACE1 rejects untaken unconditionals).
		in.Taken = rec.taken || in.Branch.IsUnconditional()
		if in.Branch == CondBranch && !rec.taken {
			in.Taken = false
		}
		if in.Taken {
			if c.havePeek {
				in.Target = c.next.ip
			} else {
				// Last record of the trace: the target was never
				// captured. Fall through; any plausible address works
				// since nothing fetches after it.
				in.Target = rec.ip + uint64(in.Size)
			}
		}
	}
	for _, a := range rec.srcMem {
		if a != 0 {
			in.IsLoad, in.DataAddr = true, a
			break
		}
	}
	for _, a := range rec.destMem {
		if a != 0 {
			in.IsStore = true
			if !in.IsLoad {
				in.DataAddr = a
			}
			break
		}
	}
	if !in.IsLoad && !in.IsStore && c.opt.SynthesizeData && !rec.branch {
		// Memory-stripped trace: give every 4th non-branch instruction
		// a deterministic sequential load so the data side of the
		// pipeline is exercised at a realistic rate.
		if c.count%4 == 3 {
			c.synth = (c.synth + 64) % (1 << 19)
			in.IsLoad = true
			in.DataAddr = 0x0000_6000_0000 + c.synth
		}
	}
}
