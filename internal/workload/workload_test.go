package workload

import (
	"math"
	"testing"

	"entangling/internal/trace"
)

func TestPresetsValidate(t *testing.T) {
	for _, c := range []Category{Crypto, Int, FP, Srv, Cloud, JIT, Micro, Serverless} {
		p := Preset(c)
		p.Name = string(c)
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", c, err)
		}
	}
}

func TestPresetUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown category")
		}
	}()
	Preset(Category("bogus"))
}

func TestValidateRejectsBadParams(t *testing.T) {
	base := Preset(Int)
	cases := []func(*Params){
		func(p *Params) { p.Functions = 0 },
		func(p *Params) { p.MeanBlocks = 0 },
		func(p *Params) { p.MeanBlockInstrs = 0 },
		func(p *Params) { p.MaxCallDepth = 0 },
		func(p *Params) { p.CallFrac = 0.9; p.CondFrac = 0.9 },
		func(p *Params) { p.LoopIterMean = -1 },
		// Fractions out of [0,1]; the terminator ones sum to at most 1.
		func(p *Params) { p.CondFrac = -0.5; p.CallFrac = 1.2 },
		func(p *Params) { p.LoopBackProb = -0.1 },
		func(p *Params) { p.LoopBackProb = 1.1 },
		func(p *Params) { p.CallFrac = -0.1 },
		func(p *Params) { p.IndirectFrac = -0.1 },
		func(p *Params) { p.JumpFrac = -0.1 },
		func(p *Params) { p.CondFrac = -0.1 },
		func(p *Params) { p.LoopBackProb = math.NaN() },
	}
	for i, mutate := range cases {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestVaryIsDeterministicAndDistinct(t *testing.T) {
	base := Preset(Srv)
	a := Vary(base, 1)
	b := Vary(base, 1)
	c := Vary(base, 2)
	if a != b {
		t.Error("Vary not deterministic for equal seeds")
	}
	if a == c {
		t.Error("Vary produced identical params for different seeds")
	}
	if a.Seed != 1 || c.Seed != 2 {
		t.Error("Vary did not set Seed")
	}
}

func TestBuildProgramLayout(t *testing.T) {
	p := Preset(Int)
	p.Name = "layout"
	p.Seed = 99
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Funcs) != p.Functions {
		t.Fatalf("got %d functions, want %d", len(prog.Funcs), p.Functions)
	}
	var prevEnd uint64 = CodeBase
	for fi, f := range prog.Funcs {
		if len(f.Blocks) == 0 {
			t.Fatalf("func %d has no blocks", fi)
		}
		if f.Entry() < prevEnd {
			t.Fatalf("func %d overlaps previous (entry %#x < %#x)", fi, f.Entry(), prevEnd)
		}
		addr := f.Blocks[0].Addr
		for bi, b := range f.Blocks {
			if b.Addr != addr {
				t.Fatalf("func %d block %d not contiguous", fi, bi)
			}
			if b.NInstr < 1 || b.NInstr > 48 {
				t.Fatalf("func %d block %d NInstr=%d out of range", fi, bi, b.NInstr)
			}
			addr += uint64(b.NInstr) * InstrSize
			switch b.Term {
			case TermCond, TermJump:
				if b.TargetBlock < 0 || b.TargetBlock >= len(f.Blocks) {
					t.Fatalf("func %d block %d target out of range", fi, bi)
				}
			case TermCall:
				if b.Callee < 0 || b.Callee >= len(prog.Funcs) {
					t.Fatalf("func %d block %d callee out of range", fi, bi)
				}
				if b.Callee == fi {
					t.Fatalf("func %d block %d trivially self-recursive", fi, bi)
				}
			case TermIndirectCall:
				if len(b.ITargets) == 0 {
					t.Fatalf("func %d block %d has no indirect targets", fi, bi)
				}
			}
		}
		last := f.Blocks[len(f.Blocks)-1]
		if last.Term != TermReturn {
			t.Fatalf("func %d does not end in return", fi)
		}
		prevEnd = addr
	}
	if prog.FootprintBytes == 0 {
		t.Error("zero footprint")
	}
}

func TestBuildProgramDeterministic(t *testing.T) {
	p := Preset(Crypto)
	p.Seed = 7
	a, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := BuildProgram(p)
	if a.FootprintBytes != b.FootprintBytes || len(a.Funcs) != len(b.Funcs) {
		t.Fatal("program construction not deterministic")
	}
	for fi := range a.Funcs {
		if len(a.Funcs[fi].Blocks) != len(b.Funcs[fi].Blocks) {
			t.Fatalf("func %d block count differs", fi)
		}
	}
}

func TestWalkerStreamConsistency(t *testing.T) {
	// JIT and Micro join the battery: relocation skips live frames and
	// interrupts transfer control via calls, so their streams keep full
	// PC continuity. Serverless is excluded here — a cold restart is a
	// legitimate discontinuity — and has its own consistency test.
	for _, cat := range []Category{Crypto, Int, Srv, JIT, Micro} {
		p := Preset(cat)
		p.Name = string(cat)
		p.Seed = 11
		prog, err := BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		w := NewWalker(prog)
		var in trace.Instruction
		var prev trace.Instruction
		have := false
		for i := 0; i < 200_000; i++ {
			if !w.Next(&in) {
				t.Fatalf("%s: walker ended", cat)
			}
			if in.Size != InstrSize {
				t.Fatalf("%s: bad size %d", cat, in.Size)
			}
			if have && prev.NextPC() != in.PC {
				t.Fatalf("%s: discontinuity without branch at instr %d: %#x -> %#x (%s)",
					cat, i, prev.PC, in.PC, trace.Describe(&prev))
			}
			if in.Branch.IsUnconditional() && !in.Taken {
				t.Fatalf("%s: untaken unconditional branch", cat)
			}
			prev, have = in, true
			if w.Depth() > p.MaxCallDepth {
				t.Fatalf("%s: depth %d exceeds cap %d", cat, w.Depth(), p.MaxCallDepth)
			}
		}
		if w.Count() != 200_000 {
			t.Fatalf("%s: Count=%d", cat, w.Count())
		}
	}
}

func TestWalkerDeterministic(t *testing.T) {
	p := Preset(Srv)
	p.Seed = 3
	prog, _ := BuildProgram(p)
	w1 := NewWalker(prog)
	w2 := NewWalker(prog)
	var a, b trace.Instruction
	for i := 0; i < 50_000; i++ {
		w1.Next(&a)
		w2.Next(&b)
		if a != b {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, a, b)
		}
	}
}

func TestWalkerFootprintsByCategory(t *testing.T) {
	// srv must have a far larger touched-code footprint than crypto —
	// that is the property the paper's categories hinge on.
	touched := func(cat Category) int {
		p := Preset(cat)
		p.Seed = 5
		prog, _ := BuildProgram(p)
		w := NewWalker(prog)
		lines := make(map[uint64]struct{})
		var in trace.Instruction
		for i := 0; i < 500_000; i++ {
			w.Next(&in)
			lines[in.PC>>6] = struct{}{}
		}
		return len(lines)
	}
	crypto, srv := touched(Crypto), touched(Srv)
	if srv < 4*crypto {
		t.Errorf("srv footprint (%d lines) not >> crypto (%d lines)", srv, crypto)
	}
	// srv should comfortably exceed the 512-line L1I.
	if srv < 1500 {
		t.Errorf("srv touched only %d lines; too small to stress a 512-line L1I", srv)
	}
}

func TestWalkerBranchMix(t *testing.T) {
	p := Preset(Srv)
	p.Seed = 13
	prog, _ := BuildProgram(p)
	w := NewWalker(prog)
	var in trace.Instruction
	var branches, calls, rets, loads int
	const n = 300_000
	for i := 0; i < n; i++ {
		w.Next(&in)
		if in.Branch.IsBranch() {
			branches++
		}
		if in.Branch.IsCall() {
			calls++
		}
		if in.Branch == trace.Return {
			rets++
		}
		if in.IsLoad {
			loads++
		}
	}
	if branches < n/20 {
		t.Errorf("too few branches: %d/%d", branches, n)
	}
	if calls == 0 || rets == 0 {
		t.Error("no calls or returns in srv stream")
	}
	// Calls and returns must roughly balance in steady state.
	if diff := calls - rets; diff < -calls/2 || diff > calls/2 {
		t.Errorf("calls (%d) and returns (%d) unbalanced", calls, rets)
	}
	if loads < n/20 {
		t.Errorf("too few loads: %d/%d", loads, n)
	}
}

func TestCVPSuite(t *testing.T) {
	specs := CVPSuite(3)
	if len(specs) != 12 {
		t.Fatalf("got %d specs, want 12", len(specs))
	}
	seen := make(map[string]bool)
	for _, s := range specs {
		if seen[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		seen[s.Name] = true
		if err := s.Params.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		w, err := s.New()
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var in trace.Instruction
		if !w.Next(&in) {
			t.Fatalf("%s: empty stream", s.Name)
		}
	}
	if len(CVPSuite(0)) != 4 {
		t.Error("CVPSuite(0) should clamp to 1 per category")
	}
}

func TestCloudSuite(t *testing.T) {
	specs := CloudSuite()
	if len(specs) != 4 {
		t.Fatalf("got %d cloud specs", len(specs))
	}
	names := map[string]bool{"cassandra": true, "cloud9": true, "nutch": true, "streaming": true}
	for _, s := range specs {
		if !names[s.Name] {
			t.Errorf("unexpected name %q", s.Name)
		}
		if err := s.Params.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.Params.Category != Cloud {
			t.Errorf("%s: category %q", s.Name, s.Params.Category)
		}
	}
}

func TestPhaseReshuffleChangesIndirectTargets(t *testing.T) {
	p := Preset(Cloud)
	p.Seed = 21
	p.PhaseLen = 50_000
	prog, _ := BuildProgram(p)
	w := NewWalker(prog)
	// Record indirect-call targets before and after several phases.
	targets := func(n int) map[uint64]int {
		m := make(map[uint64]int)
		var in trace.Instruction
		for i := 0; i < n; i++ {
			w.Next(&in)
			if in.Branch == trace.IndirectCall {
				m[in.Target]++
			}
		}
		return m
	}
	before := targets(50_000)
	_ = targets(100_000) // burn through a phase boundary
	after := targets(50_000)
	if len(before) == 0 || len(after) == 0 {
		t.Skip("no indirect calls observed; preset too sparse for this seed")
	}
	common := 0
	for k := range after {
		if _, ok := before[k]; ok {
			common++
		}
	}
	if common == len(after) && len(after) == len(before) {
		t.Error("phase reshuffle did not change the indirect target set")
	}
}

func TestGeometricMean(t *testing.T) {
	prog, _ := BuildProgram(Preset(Int))
	_ = prog
	// geometric() sanity: mean of samples should be near the requested mean.
	p := Preset(Int)
	p.Seed = 17
	// Access via block sizes: mean NInstr should be near MeanBlockInstrs+1.
	prog2, _ := BuildProgram(p)
	var sum, n float64
	for _, f := range prog2.Funcs {
		for _, b := range f.Blocks {
			sum += float64(b.NInstr)
			n++
		}
	}
	mean := sum / n
	want := float64(p.MeanBlockInstrs + 1)
	if mean < want*0.6 || mean > want*1.4 {
		t.Errorf("mean block size %.2f, want near %.2f", mean, want)
	}
}
