package workload

import (
	"math"
	"testing"

	"entangling/internal/trace"
)

func TestWalkerDepthNeverExceedsCap(t *testing.T) {
	p := Preset(Srv)
	p.Seed = 8
	p.MaxCallDepth = 6
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(prog)
	var in trace.Instruction
	for i := 0; i < 100_000; i++ {
		w.Next(&in)
		if w.Depth() > 6 {
			t.Fatalf("depth %d exceeds cap at instr %d", w.Depth(), i)
		}
	}
}

func TestDriverDispatchSitesExist(t *testing.T) {
	for _, c := range []Category{Crypto, Int, FP, Srv, Cloud} {
		p := Preset(c)
		p.Seed = 4
		prog, err := BuildProgram(p)
		if err != nil {
			t.Fatal(err)
		}
		driver := prog.Funcs[0]
		dispatch := 0
		for _, b := range driver.Blocks {
			if b.Term == TermIndirectCall {
				if len(b.ITargets) == 0 {
					t.Fatalf("%s: dispatch site without targets", c)
				}
				dispatch++
			}
		}
		if dispatch == 0 {
			t.Errorf("%s: driver has no dispatch sites", c)
		}
		want := p.DriverFanout
		if want > p.Functions-1 {
			want = p.Functions - 1
		}
		for _, b := range driver.Blocks {
			if b.Term == TermIndirectCall && len(b.ITargets) != want {
				t.Errorf("%s: dispatch fanout %d, want %d", c, len(b.ITargets), want)
			}
		}
	}
}

func TestDataGenClasses(t *testing.T) {
	p := Preset(Srv)
	p.Seed = 12
	prog, _ := BuildProgram(p)
	w := NewWalker(prog)
	var in trace.Instruction
	var stack, heap int
	for i := 0; i < 300_000; i++ {
		w.Next(&in)
		if !in.IsLoad && !in.IsStore {
			continue
		}
		switch {
		case in.DataAddr > 0x7000_0000_0000:
			stack++
		case in.DataAddr >= 0x6000_0000:
			heap++
		default:
			t.Fatalf("data address %#x in no known region", in.DataAddr)
		}
	}
	if stack == 0 || heap == 0 {
		t.Errorf("data classes unbalanced: stack=%d heap=%d", stack, heap)
	}
	// Stack accesses dominate (the 60% class).
	if stack < heap {
		t.Errorf("stack (%d) should outnumber heap (%d)", stack, heap)
	}
}

func TestWalkerCountMonotone(t *testing.T) {
	p := Preset(Crypto)
	p.Seed = 3
	prog, _ := BuildProgram(p)
	w := NewWalker(prog)
	var in trace.Instruction
	for i := uint64(1); i <= 10_000; i++ {
		w.Next(&in)
		if w.Count() != i {
			t.Fatalf("Count = %d at step %d", w.Count(), i)
		}
	}
}

func TestSpecNewIndependentStreams(t *testing.T) {
	specs := CVPSuite(1)
	a, err := specs[0].New()
	if err != nil {
		t.Fatal(err)
	}
	b, err := specs[0].New()
	if err != nil {
		t.Fatal(err)
	}
	var x, y trace.Instruction
	for i := 0; i < 10_000; i++ {
		a.Next(&x)
		b.Next(&y)
		if x != y {
			t.Fatal("two walkers from the same spec diverge")
		}
	}
}

func TestVarySeedZeroStillValid(t *testing.T) {
	p := Vary(Preset(Int), 0)
	p.Name = "zero"
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	prog, err := BuildProgram(p)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(prog)
	var in trace.Instruction
	if !w.Next(&in) {
		t.Fatal("empty stream for seed 0")
	}
}

// FuzzThresholdMatchesFloat: deciding a draw k on the integer test
// k < threshold(x) agrees with the float test float64(k)/2^53 < x it
// replaces, for every 53-bit k and every float64 x: NaN, infinities,
// negatives, values above 1, subnormals, and fractions whose x·2^53 is
// or is not an integer. Besides the fuzzed k it checks the draws
// either side of the threshold, where a rounding slip would show.
func FuzzThresholdMatchesFloat(f *testing.F) {
	fracs := []float64{
		0, 1, 0.5, 0.25, 0.375, 0.03, 0.97, 0.60, 0.96, 0.05,
		math.NaN(), math.Inf(1), math.Inf(-1), -0.5, -0.0, 1.8, 2,
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-53, 0x1p-54, 3 * 0x1p-54,
		math.Nextafter(1, 0), math.Nextafter(0.6, 1), math.Nextafter(0.6, 0),
	}
	var specs []Spec
	specs = append(specs, CVPSuite(2)...)
	specs = append(specs, CloudSuite()...)
	specs = append(specs, AdversarialSuite()...)
	for _, s := range specs {
		p := s.Params
		fracs = append(fracs, p.PathNoise, p.LoadFrac, p.LoadFrac+p.StoreFrac,
			p.CondTakenBias, p.CodeRelocFrac, p.LoopIterMean/(p.LoopIterMean+1))
	}
	for i, x := range fracs {
		f.Add(uint64(i)*0x9e3779b97f4a7c15, x)
	}
	f.Fuzz(func(t *testing.T, k uint64, x float64) {
		th := threshold(x)
		if th > 1<<53 {
			t.Fatalf("threshold(%v) = %d, above 2^53", x, th)
		}
		for _, k := range []uint64{k & (1<<53 - 1), th - 1, th, th + 1} {
			if k >= 1<<53 {
				continue
			}
			if got, want := k < th, float64(k)/(1<<53) < x; got != want {
				t.Fatalf("x=%v (%b) k=%d: integer test %v, float test %v", x, math.Float64bits(x), k, got, want)
			}
		}
	})
}
