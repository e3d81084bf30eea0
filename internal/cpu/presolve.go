package cpu

import (
	"errors"
	"fmt"

	"entangling/internal/bpred"
	"entangling/internal/cache"
	"entangling/internal/trace"
)

// Presolve pass
//
// The branch predictor and the L1D's tag array take their input in
// program order and no timing: the predictor sees each branch's PC,
// type, direction and target, and the L1D installs a line's tag when
// the access happens. Their outcomes are therefore a function of the
// trace and of the predictor and L1D shapes (plus the page mapping
// under PhysicalAddresses) alone, the same for every configuration
// that differs only in the L1I and its prefetcher. A presolve pass runs
// both models over the records once, in program order, and writes one
// outcome byte per word of the packed stream; the pipeline replays
// those bytes and never runs the predictor or the L1D's tag step
// itself.
//
// The outcome byte of each word of trace.Packed:
//
//	DataAddr   bits 0-5 the L1D way, bit 6 a miss, bit 7 an eviction
//	Target     outBTBMiss, outDirMiss, outTargetMiss (0 = no redirect)
//	PC, Size   0 (an escape's words have no outcome)
const (
	outWay     = 1<<6 - 1
	outMiss    = 1 << 6
	outEvicted = 1 << 7

	outBTBMiss    = 1 << 0
	outDirMiss    = 1 << 1
	outTargetMiss = 1 << 2
)

// maxPresolvedWays is the most L1D ways an outcome byte can name.
const maxPresolvedWays = outWay + 1

// PresolveKey is everything besides the trace that presolved outcomes
// depend on. Two machines with the same key replay the same outcomes
// over the same trace.
type PresolveKey struct {
	Pred             bpred.Config
	L1DSets, L1DWays int
	Physical         bool
	// Salt is the translator salt under Physical, else zero.
	Salt uint64
}

// PresolveKey returns the key of the outcomes a machine of c replays.
func (c Config) PresolveKey() PresolveKey {
	k := PresolveKey{Pred: c.Pred, L1DSets: c.L1D.Sets, L1DWays: c.L1D.Ways, Physical: c.PhysicalAddresses}
	if k.Physical {
		k.Salt = c.TranslatorSalt
	}
	return k
}

// ErrPresolvedMismatch reports presolved outcomes handed to a machine
// whose predictor, L1D or address mapping they were not built for.
var ErrPresolvedMismatch = errors.New("cpu: presolved outcomes were built for a different predictor, L1D or address mapping")

// Presolved is the outcome stream of one packed trace under one
// PresolveKey. It is immutable and safe to share between machines.
//
// The stream is held in blocks of cancelCheckInterval records, the
// machine's chunk size, each a small allocation. One trace-sized
// allocation, alive while the trace's cells run, would sit among the
// machines' short-lived arrays and fragment the heap; on the
// benchmark's sweep-nopf workload that raised the peak resident set by
// about 6 MB at equal heap goals (EXPERIMENTS.md).
type Presolved struct {
	key PresolveKey
	p   *trace.Packed
	// blocks[k] holds the outcomes of the records from
	// k*cancelCheckInterval on, parallel to p.Words[words[k]:].
	blocks [][]byte
	words  []int
}

// Presolve runs the predictor and the L1D tag step of a machine of cfg
// over every record of p. It fails on an L1D of more ways than an
// outcome byte can name.
func Presolve(p *trace.Packed, cfg Config) (*Presolved, error) {
	if cfg.L1D.Ways > maxPresolvedWays {
		return nil, fmt.Errorf("cpu: an L1D of %d ways exceeds the %d a presolved outcome can name", cfg.L1D.Ways, maxPresolvedWays)
	}
	s := presolver{
		pred:     bpred.New(cfg.Pred),
		l1d:      cache.NewTags(cfg.L1D),
		physical: cfg.PhysicalAddresses,
		trans:    cache.Translator{Salt: cfg.TranslatorSalt},
	}
	ps := &Presolved{key: cfg.PresolveKey(), p: p}
	// A block's records hold at most 4 words each (an escape's 2, a
	// data address and a target).
	buf := make([]byte, min(len(p.Words), 4*cancelCheckInterval))
	var c trace.Cursor
	for c.Op < p.Len() {
		next := s.run(p, c, min(cancelCheckInterval, p.Len()-c.Op), buf)
		ps.blocks = append(ps.blocks, append([]byte(nil), buf[:next.Word-c.Word]...))
		ps.words = append(ps.words, c.Word)
		c = next
	}
	return ps, nil
}

// Bytes returns the memory the outcome stream holds.
func (ps *Presolved) Bytes() uint64 {
	n := uint64(24*cap(ps.blocks) + 8*cap(ps.words))
	for _, b := range ps.blocks {
		n += uint64(cap(b))
	}
	return n
}

// outcomes returns the outcomes of the records from c on, to the end
// of c's block, parallel to p.Words[c.Word:].
func (ps *Presolved) outcomes(c trace.Cursor) []byte {
	k := c.Op / cancelCheckInterval
	return ps.blocks[k][c.Word-ps.words[k]:]
}

// presolver owns the trace-determined models: the predictor and the
// L1D's tag array.
type presolver struct {
	pred     *bpred.Predictor
	l1d      *cache.Tags
	physical bool
	trans    cache.Translator
}

// run presolves the n records of p from c on into out, which is
// parallel to p.Words[c.Word:], and returns the cursor after them.
func (s *presolver) run(p *trace.Packed, c trace.Cursor, n int, out []byte) trace.Cursor {
	words := p.Words[c.Word:]
	w := 0
	next := c.PC
	for _, op := range p.Ops[c.Op : c.Op+n] {
		pc := next
		next += trace.DefaultSize
		if op&trace.OpEscape != 0 {
			pc = words[w]
			next = pc + words[w+1]
			out[w], out[w+1] = 0, 0
			w += 2
		}
		if op&(trace.OpLoad|trace.OpStore) != 0 {
			addr := cache.LineAddr(words[w])
			if s.physical {
				addr = s.trans.Translate(addr)
			}
			t := s.l1d.Ensure(addr)
			b := byte(t.Way)
			if t.Miss {
				b |= outMiss
			}
			if t.Evicted {
				b |= outEvicted
			}
			out[w] = b
			w++
		}
		if br := trace.BranchType(op & trace.OpBranch); br != trace.NotBranch {
			taken := op&trace.OpTaken != 0
			in := trace.Instruction{PC: pc, Target: words[w], Size: uint8(next - pc), Branch: br, Taken: taken}
			o := s.pred.Process(&in)
			var b byte
			if o.BTBMiss {
				b |= outBTBMiss
			}
			if o.DirMispredict {
				b |= outDirMiss
			}
			if o.TargetMispredict {
				b |= outTargetMiss
			}
			out[w] = b
			w++
			if taken {
				next = in.Target
			}
		}
	}
	return trace.Cursor{Op: c.Op + n, Word: c.Word + w, PC: next}
}

// l1dTag decodes a DataAddr word's outcome byte.
func l1dTag(o byte) cache.Tag {
	return cache.Tag{Way: int(o & outWay), Miss: o&outMiss != 0, Evicted: o&outEvicted != 0}
}
