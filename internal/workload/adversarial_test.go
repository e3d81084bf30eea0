package workload

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"entangling/internal/trace"
)

// streamOf materializes n instructions of a category at a seed.
func streamOf(t *testing.T, cat Category, seed, n uint64) []trace.Instruction {
	t.Helper()
	p := Preset(cat)
	p.Name = string(cat) + "-test"
	p.Seed = seed
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(prog)
	out := make([]trace.Instruction, n)
	for i := range out {
		if !w.Next(&out[i]) {
			t.Fatalf("%s: walker ended at %d", cat, i)
		}
	}
	return out
}

func TestAdversarialSuiteSpecs(t *testing.T) {
	suite := AdversarialSuite()
	if len(suite) != 3 {
		t.Fatalf("AdversarialSuite has %d specs, want 3", len(suite))
	}
	seen := map[Category]bool{}
	for _, s := range suite {
		if err := s.Params.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if _, err := s.New(); err != nil {
			t.Errorf("%s: New: %v", s.Name, err)
		}
		seen[s.Params.Category] = true
	}
	for _, c := range []Category{JIT, Micro, Serverless} {
		if !seen[c] {
			t.Errorf("suite missing category %s", c)
		}
	}
}

func TestAdversarialDeterminism(t *testing.T) {
	for _, cat := range []Category{JIT, Micro, Serverless} {
		a := streamOf(t, cat, 9, 100_000)
		b := streamOf(t, cat, 9, 100_000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: streams diverge at %d: %+v vs %+v", cat, i, a[i], b[i])
			}
		}
	}
}

// TestJITRelocationMovesCode checks the defining behaviour: after a
// code phase, a meaningful fraction of fetches land in the relocation
// arena, at addresses no early-phase fetch used.
func TestJITRelocationMovesCode(t *testing.T) {
	p := Preset(JIT)
	if p.CodePhaseLen == 0 || p.CodeRelocFrac == 0 {
		t.Fatal("JIT preset has relocation disabled")
	}
	ins := streamOf(t, JIT, 4, 1_500_000)
	arena := CodeBase + uint64(1)<<30
	var early, lateArena, late uint64
	for i, in := range ins {
		if uint64(i) < p.CodePhaseLen {
			early++
			if in.PC >= arena {
				t.Fatalf("instr %d: arena address %#x before the first code phase", i, in.PC)
			}
		} else if uint64(i) >= uint64(len(ins))-p.CodePhaseLen {
			late++
			if in.PC >= arena {
				lateArena++
			}
		}
	}
	if lateArena == 0 {
		t.Error("no fetches from the relocation arena after several code phases")
	}
	if frac := float64(lateArena) / float64(late); frac < 0.05 {
		t.Errorf("only %.1f%% of late fetches are relocated code", 100*frac)
	}
}

// TestMicroInterruptExcursions checks interrupts fire at roughly the
// configured rate, transfer control via indirect calls into the handler
// region, and re-execute the interrupted PC on return.
func TestMicroInterruptExcursions(t *testing.T) {
	p := Preset(Micro)
	p.Name = "micro-test"
	p.Seed = 21
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	handlerLo := prog.Funcs[len(prog.Funcs)-p.InterruptFns].Entry()

	const n = 400_000
	ins := streamOf(t, Micro, 21, n)
	var intoHandlers int
	reexec := 0
	for i := 0; i < n-1; i++ {
		in := ins[i]
		if in.Branch == trace.IndirectCall && in.Taken && in.Target >= handlerLo {
			intoHandlers++
			// Find the matching return and check it targets the
			// interrupted PC (the same address fetched again).
			depth := 1
			for j := i + 1; j < n && j < i+50_000; j++ {
				if ins[j].Branch.IsCall() {
					depth++
				}
				if ins[j].Branch == trace.Return {
					depth--
					if depth == 0 {
						if ins[j].Target == in.PC {
							reexec++
						}
						break
					}
				}
			}
		}
	}
	want := n / int(p.InterruptEvery)
	if intoHandlers < want/4 || intoHandlers > want*4 {
		t.Errorf("%d handler entries in %d instrs, want about %d", intoHandlers, n, want)
	}
	if reexec == 0 {
		t.Error("no excursion re-executed the interrupted PC")
	}
}

// TestServerlessColdEpochsAreDisjoint checks each cold epoch fetches
// from a code mapping disjoint with every earlier epoch's.
func TestServerlessColdEpochsAreDisjoint(t *testing.T) {
	p := Preset(Serverless)
	if p.ColdEvery == 0 {
		t.Fatal("Serverless preset has cold restarts disabled")
	}
	n := 3*p.ColdEvery + p.ColdEvery/2
	ins := streamOf(t, Serverless, 31, n)

	epochLines := make([]map[uint64]struct{}, 4)
	for e := range epochLines {
		epochLines[e] = make(map[uint64]struct{})
	}
	for i, in := range ins {
		epochLines[uint64(i)/p.ColdEvery][in.PC>>6] = struct{}{}
	}
	for a := 0; a < len(epochLines); a++ {
		for b := a + 1; b < len(epochLines); b++ {
			for line := range epochLines[b] {
				if _, ok := epochLines[a][line]; ok {
					t.Fatalf("epochs %d and %d share code line %#x", a, b, line<<6)
				}
			}
		}
	}
	// Discontinuities happen only at epoch boundaries.
	for i := 1; i < len(ins); i++ {
		if ins[i-1].NextPC() != ins[i].PC && uint64(i)%p.ColdEvery != 0 {
			t.Fatalf("discontinuity at %d, not an epoch boundary", i)
		}
	}
}

// TestAdversarialStreamsEncode runs every adversarial stream through
// the codec: the walker must only emit records Writer accepts.
func TestAdversarialStreamsEncode(t *testing.T) {
	for _, cat := range []Category{JIT, Micro, Serverless} {
		ins := streamOf(t, cat, 17, 200_000)
		var buf bytes.Buffer
		w, _ := trace.NewWriter(&buf, false)
		for i := range ins {
			if err := w.Write(&ins[i]); err != nil {
				t.Fatalf("%s: record %d: %v", cat, i, err)
			}
		}
	}
}

func TestValidateRejectsBadAdversarialParams(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.CodeRelocFrac = 1.5 },
		func(p *Params) { p.CodeRelocFrac = -0.1 },
		func(p *Params) { p.InterruptEvery = 100; p.InterruptFns = 0 },
		func(p *Params) { p.InterruptEvery = 100; p.InterruptFns = p.Functions - 1 },
		func(p *Params) { p.InterruptEvery = 0; p.InterruptFns = 3 },
	}
	for i, mutate := range cases {
		p := Preset(Int)
		p.Name = "case"
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid adversarial params accepted", i)
		}
	}
}

// TestValidateRejectsBadShapeParams: a program the walker cannot run
// (one function leaves the driver nothing to dispatch to) or a memory
// mix that is not a probability split fails validation instead of
// panicking or skewing the walk.
func TestValidateRejectsBadShapeParams(t *testing.T) {
	cases := map[string]func(*Params){
		"one function":      func(p *Params) { p.Functions = 1 },
		"load above 1":      func(p *Params) { p.LoadFrac = 1.2 },
		"negative load":     func(p *Params) { p.LoadFrac = -0.5 },
		"negative store":    func(p *Params) { p.StoreFrac = -0.01 },
		"NaN store":         func(p *Params) { p.StoreFrac = math.NaN() },
		"load+store over 1": func(p *Params) { p.LoadFrac, p.StoreFrac = 0.9, 0.9 },
		"bias above 1":      func(p *Params) { p.CondTakenBias = 1.01 },
		"negative bias":     func(p *Params) { p.CondTakenBias = -0.2 },
	}
	for name, mutate := range cases {
		p := Preset(Int)
		p.Name = "case"
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := BuildProgram(p); err == nil {
			t.Errorf("%s: BuildProgram accepted", name)
		}
	}
	p := Preset(Int)
	p.Functions, p.LoadFrac, p.StoreFrac, p.CondTakenBias = 2, 0.5, 0.5, 1
	if err := p.Validate(); err != nil {
		t.Errorf("boundary params rejected: %v", err)
	}
}

// TestShippedSpecsValidate: every spec the suites ship passes
// validation, so tightening it changed no workload.
func TestShippedSpecsValidate(t *testing.T) {
	var specs []Spec
	specs = append(specs, CVPSuite(12)...)
	specs = append(specs, CloudSuite()...)
	specs = append(specs, AdversarialSuite()...)
	for _, spec := range specs {
		if err := spec.Params.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// --- trace-backed specs ---

func encodeTestTrace(t *testing.T, n int) ([]byte, uint64) {
	t.Helper()
	p := Preset(Int)
	p.Name = "fixture"
	p.Seed = 5
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(prog)
	var buf bytes.Buffer
	tw, _ := trace.NewWriter(&buf, false)
	var in trace.Instruction
	for i := 0; i < n; i++ {
		w.Next(&in)
		if err := tw.Write(&in); err != nil {
			t.Fatal(err)
		}
	}
	tw.Close()
	return buf.Bytes(), tw.Count()
}

func TestTraceSpecMaterializes(t *testing.T) {
	payload, _ := encodeTestTrace(t, 5_000)
	spec := TraceSpec("trace:abc", "abc123", func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(payload)), nil
	})
	if !spec.TraceBacked() {
		t.Fatal("TraceSpec not trace-backed")
	}
	if err := spec.Params.Validate(); err != nil {
		t.Fatalf("trace-backed params fail validation: %v", err)
	}

	tr, err := Materialize(spec, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Instrs) != 3_000 {
		t.Fatalf("materialized %d instrs, want 3000", len(tr.Instrs))
	}

	// A second materialization decodes identical content, and the cache
	// singleflights both under one entry.
	again, err := Materialize(spec, 3_000)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Instrs {
		if tr.Instrs[i] != again.Instrs[i] {
			t.Fatalf("re-materialization differs at %d", i)
		}
	}
	tc := NewTraceCache()
	tc.Reserve(spec, 3_000, 1)
	defer tc.Release(spec, 3_000)
	if _, err := tc.Get(spec, 3_000); err != nil {
		t.Fatal(err)
	}
	if builds, _, _ := func() (uint64, uint64, int) { return tc.CacheStats() }(); builds != 1 {
		t.Errorf("cache builds = %d, want 1", builds)
	}
}

func TestTraceSpecWithoutOpener(t *testing.T) {
	spec := TraceSpec("trace:abc", "abc123", nil)
	if _, err := Materialize(spec, 100); err == nil {
		t.Error("materializing an opener-less trace spec did not fail")
	}
	if _, err := spec.New(); err == nil {
		t.Error("Spec.New on a trace-backed spec did not fail")
	}
}

func TestTraceSpecOpenerError(t *testing.T) {
	wantErr := errors.New("storage offline")
	spec := TraceSpec("trace:abc", "abc123", func() (io.ReadCloser, error) {
		return nil, wantErr
	})
	if _, err := Materialize(spec, 100); !errors.Is(err, wantErr) {
		t.Errorf("err = %v, want %v", err, wantErr)
	}
}

// TestTraceSpecTooShort: a stored trace that ends before the requested
// records fails the build instead of handing the simulator a short
// stream.
func TestTraceSpecTooShort(t *testing.T) {
	payload, _ := encodeTestTrace(t, 100)
	spec := TraceSpec("trace:short", "5407", func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(payload)), nil
	})
	tr, err := NewTraceCache().Get(spec, 200)
	if !errors.Is(err, ErrTraceTooShort) || tr != nil {
		t.Fatalf("Get = %v, %v; want nil and ErrTraceTooShort", tr, err)
	}
	if want := "holds 100 records, 200 requested"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not say %q", err, want)
	}
	if _, err := NewTraceCache().Get(spec, 100); err != nil {
		t.Errorf("a window of exactly the stored records failed: %v", err)
	}
}

// TestCheckBudgetBounds: each budget bound admits a request at its
// constant and rejects one past it.
func TestCheckBudgetBounds(t *testing.T) {
	base := Preset(Int)
	base.Name = "int"
	cases := []struct {
		name     string
		traceLen uint64
		at, past func(*Params)
	}{
		{name: "trace length", traceLen: MaxTraceInstrs},
		{
			name: "static instructions", traceLen: 1,
			at:   func(p *Params) { p.Functions, p.MeanBlocks, p.MeanBlockInstrs = MaxStaticInstrs, 1, 1 },
			past: func(p *Params) { p.Functions, p.MeanBlocks, p.MeanBlockInstrs = MaxStaticInstrs+1, 1, 1 },
		},
		{
			name: "data footprint", traceLen: 1,
			at:   func(p *Params) { p.DataFootprint = MaxDataFootprint },
			past: func(p *Params) { p.DataFootprint = MaxDataFootprint + 1 },
		},
		{
			name: "call depth", traceLen: 1,
			at:   func(p *Params) { p.MaxCallDepth = MaxCallDepth },
			past: func(p *Params) { p.MaxCallDepth = MaxCallDepth + 1 },
		},
	}
	for _, c := range cases {
		at, past := base, base
		pastLen := c.traceLen
		if c.at == nil {
			pastLen++
		} else {
			c.at(&at)
			c.past(&past)
		}
		if err := CheckBudget(Spec{Name: "int", Params: at}, c.traceLen); err != nil {
			t.Errorf("%s at its bound rejected: %v", c.name, err)
		}
		err := CheckBudget(Spec{Name: "int", Params: past}, pastLen)
		if err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("%s one past its bound: %v, want a budget error", c.name, err)
		}
	}
}

func TestBudgetSkipsShapeChecksForTraces(t *testing.T) {
	spec := TraceSpec("trace:abc", "abc123", nil)
	// Shape caps (static instrs, footprint, call depth) do not apply
	// to real traces...
	spec.Params.Functions, spec.Params.MeanBlocks, spec.Params.MeanBlockInstrs = MaxStaticInstrs+1, 1, 1
	spec.Params.DataFootprint = MaxDataFootprint + 1
	spec.Params.MaxCallDepth = MaxCallDepth + 1
	if err := CheckBudget(spec, MaxTraceInstrs); err != nil {
		t.Errorf("trace spec rejected by shape checks: %v", err)
	}
	// ...but the stream-length cap still does.
	if err := CheckBudget(spec, MaxTraceInstrs+1); err == nil {
		t.Error("over-length trace window accepted")
	}
}

func TestBudgetDecodeLimits(t *testing.T) {
	lim := DecodeLimits(456)
	if lim.MaxInstrs != MaxTraceInstrs || lim.MaxBytes != 456 {
		t.Errorf("DecodeLimits = %+v", lim)
	}
}
