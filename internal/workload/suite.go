package workload

import (
	"fmt"
	"io"
)

// Spec names a workload and carries its fully derived parameters.
type Spec struct {
	Name   string
	Params Params

	// Open, when non-nil, streams the stored ENTRACE1 payload of a
	// trace-backed workload (Params.TraceSHA256 non-empty). It is
	// excluded from JSON because encoding/json cannot marshal a func;
	// the trace's identity is Params.TraceSHA256, which the cell
	// fingerprint already covers.
	Open TraceOpener `json:"-"`
}

// TraceOpener returns a fresh reader over a stored trace payload.
type TraceOpener func() (io.ReadCloser, error)

// TraceBacked reports whether the spec replays an ingested trace
// rather than walking a synthesized program.
func (s Spec) TraceBacked() bool { return s.Params.TraceSHA256 != "" }

// TraceSpec builds the Spec for an ingested trace: the content address
// is the workload's entire identity (it feeds cell fingerprints through
// Params), and open streams the stored payload.
func TraceSpec(name, sha256hex string, open TraceOpener) Spec {
	return Spec{
		Name: name,
		Params: Params{
			Name:        name,
			Category:    TraceCat,
			TraceSHA256: sha256hex,
		},
		Open: open,
	}
}

// New builds the program and walker for a spec.
func (s Spec) New() (*Walker, error) {
	if s.TraceBacked() {
		return nil, fmt.Errorf("workload %s: trace-backed specs have no program to walk; materialize via a TraceCache", s.Name)
	}
	prog, err := BuildProgram(s.Params)
	if err != nil {
		return nil, err
	}
	return NewWalker(prog), nil
}

// CVPSuite returns the synthetic stand-in for the paper's 959 CVP
// workloads: perCategory workloads in each of the four categories
// (crypto, compute_int, compute_fp, srv), each an independent seeded
// variant of the category preset. The paper's suite is dominated by srv
// traces in influence (they have the highest MPKI); the synthetic suite
// keeps the four categories balanced and lets the harness weight them.
func CVPSuite(perCategory int) []Spec {
	if perCategory < 1 {
		perCategory = 1
	}
	cats := []Category{Crypto, Int, FP, Srv}
	specs := make([]Spec, 0, len(cats)*perCategory)
	for _, c := range cats {
		base := Preset(c)
		for i := 0; i < perCategory; i++ {
			seed := uint64(0xABCD)*uint64(i+1) + uint64(len(c))*7919
			p := Vary(base, splitmix64(seed^uint64(i)<<32)|1)
			p.Name = fmt.Sprintf("%s-%02d", c, i)
			p.Category = c
			specs = append(specs, Spec{Name: p.Name, Params: p})
		}
	}
	return specs
}

// CloudSuite returns the four CloudSuite-like workloads of Figure 16.
// Each has its own twist on the cloud preset, mirroring the qualitative
// differences between the real applications: cassandra (storage, deep
// call chains), cloud9 (JS engine, big code + hot interpreter loop),
// nutch (crawler, moderate footprint), streaming (media, smaller code
// with periodic control).
func CloudSuite() []Spec {
	base := Preset(Cloud)

	cassandra := Vary(base, 0xCA55A)
	cassandra.Name = "cassandra"
	cassandra.Functions = 2600
	cassandra.MaxCallDepth = 64

	cloud9 := Vary(base, 0xC10D9)
	cloud9.Name = "cloud9"
	cloud9.Functions = 3000
	cloud9.LoopBackProb = 0.25
	cloud9.LoopIterMean = 12

	nutch := Vary(base, 0x9A7C4)
	nutch.Name = "nutch"
	nutch.Functions = 1400
	nutch.PhaseLen = 250_000

	streaming := Vary(base, 0x57EAA)
	streaming.Name = "streaming"
	streaming.Functions = 900
	streaming.MeanBlockInstrs = 12
	streaming.LoopBackProb = 0.30

	specs := []Spec{
		{Name: "cassandra", Params: cassandra},
		{Name: "cloud9", Params: cloud9},
		{Name: "nutch", Params: nutch},
		{Name: "streaming", Params: streaming},
	}
	for i := range specs {
		specs[i].Params.Category = Cloud
	}
	return specs
}

// AdversarialSuite returns the three adversarial presets: workloads
// built to violate the stability assumptions history-based instruction
// prefetchers rely on. jit-phases relocates hot code under the
// prefetcher; micro-burst interleaves requests with asynchronous
// interrupt excursions; serverless-cold restarts at a fresh code
// mapping every epoch so nothing learned ever amortizes.
func AdversarialSuite() []Spec {
	mk := func(c Category, name string, seed uint64) Spec {
		p := Preset(c)
		p.Name = name
		p.Seed = seed
		return Spec{Name: name, Params: p}
	}
	return []Spec{
		mk(JIT, "jit-phases", 0x317AB1E),
		mk(Micro, "micro-burst", 0x51CE7),
		mk(Serverless, "serverless-cold", 0xC01D57A7),
	}
}
