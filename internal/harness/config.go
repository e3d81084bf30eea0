// Package harness drives the paper's evaluation: it assembles
// machines for the configurations of §IV-B, runs them over the
// synthetic workload suites, aggregates the metrics, and renders every
// table and figure of §IV. Both cmd/paperfigs and the repository's
// benchmark suite are thin wrappers around this package.
package harness

import (
	"context"

	"entangling/internal/core"
	"entangling/internal/cpu"
	"entangling/internal/oracle"
	"entangling/internal/prefetch"
	"entangling/internal/stats"
	"entangling/internal/workload"
)

// Configuration names one evaluated machine setup (§IV-B).
type Configuration struct {
	// Name labels the configuration in figures.
	Name string
	// Prefetcher is the registry name of the L1I prefetcher ("" or
	// "no" for none).
	Prefetcher string
	// IdealL1I makes the L1I always hit (the paper's Ideal).
	IdealL1I bool
	// L1IWays overrides the L1I associativity (the paper's L1I-64KB
	// and L1I-96KB configurations use 16 and 24 ways).
	L1IWays int
	// Physical trains the hierarchy and prefetcher on physical
	// addresses (§IV-E).
	Physical bool
}

// Baseline is the no-prefetcher configuration every normalization uses.
var Baseline = Configuration{Name: "no"}

// StandardConfigurations returns the §IV-B lineup of Figure 6.
func StandardConfigurations() []Configuration {
	return []Configuration{
		Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
		{Name: "sn4l", Prefetcher: "sn4l"},
		{Name: "mana-2k", Prefetcher: "mana-2k"},
		{Name: "mana-4k", Prefetcher: "mana-4k"},
		{Name: "mana-8k", Prefetcher: "mana-8k"},
		{Name: "rdip", Prefetcher: "rdip"},
		{Name: "djolt", Prefetcher: "djolt"},
		{Name: "fnl+mma", Prefetcher: "fnl+mma"},
		{Name: "epi", Prefetcher: "epi"},
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
		{Name: "entangling-4k", Prefetcher: "entangling-4k"},
		{Name: "entangling-8k", Prefetcher: "entangling-8k"},
		{Name: "l1i-64kb", L1IWays: 16},
		{Name: "l1i-96kb", L1IWays: 24},
		{Name: "ideal", IdealL1I: true},
	}
}

// CompactConfigurations returns the sub-64KB subset most per-workload
// figures focus on (§IV-C: "focus on the prefetching techniques that
// require less than 64KB of storage"), plus baseline and ideal.
func CompactConfigurations() []Configuration {
	return []Configuration{
		Baseline,
		{Name: "nextline", Prefetcher: "nextline"},
		{Name: "sn4l", Prefetcher: "sn4l"},
		{Name: "mana-2k", Prefetcher: "mana-2k"},
		{Name: "mana-4k", Prefetcher: "mana-4k"},
		{Name: "rdip", Prefetcher: "rdip"},
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
		{Name: "entangling-4k", Prefetcher: "entangling-4k"},
		{Name: "ideal", IdealL1I: true},
	}
}

// PhysicalConfigurations returns the §IV-E physical-address lineup.
func PhysicalConfigurations() []Configuration {
	return []Configuration{
		{Name: "no", Physical: true},
		{Name: "entangling-2k-phys", Prefetcher: "entangling-2k-phys", Physical: true},
		{Name: "entangling-4k-phys", Prefetcher: "entangling-4k-phys", Physical: true},
		{Name: "entangling-8k-phys", Prefetcher: "entangling-8k-phys", Physical: true},
	}
}

// AblationConfigurations returns the Figure 11 variant matrix.
func AblationConfigurations() []Configuration {
	out := []Configuration{Baseline}
	for _, size := range []string{"2k", "4k", "8k"} {
		for _, v := range []string{"BB", "BBEnt", "BBEntBB", "Ent"} {
			name := "entangling-" + size + "-" + v
			out = append(out, Configuration{Name: name, Prefetcher: name})
		}
		name := "entangling-" + size
		out = append(out, Configuration{Name: name, Prefetcher: name})
	}
	return out
}

// KnownConfigurations returns every named configuration the
// repository defines — the §IV-B lineup, the ablation matrix, the
// physical-address variants and the extension studies — deduplicated
// by name, order-stable. The job server resolves client-requested
// configuration names against this registry, so the network API can
// only ever run vetted machine setups.
func KnownConfigurations() []Configuration {
	var all []Configuration
	all = append(all, StandardConfigurations()...)
	all = append(all, AblationConfigurations()...)
	all = append(all, PhysicalConfigurations()...)
	all = append(all, SplitConfigurations()...)
	all = append(all, ContextConfigurations()...)
	all = append(all, RetireConfigurations()...)
	seen := make(map[string]bool, len(all))
	out := all[:0]
	for _, c := range all {
		if seen[c.Name] {
			continue
		}
		seen[c.Name] = true
		out = append(out, c)
	}
	return out
}

// Options control suite execution.
type Options struct {
	// Warmup instructions are discarded (the paper warms caches before
	// measuring).
	Warmup uint64
	// Measure instructions are measured.
	Measure uint64
	// Parallelism bounds concurrent runs; below 1 it means
	// runtime.GOMAXPROCS(0).
	Parallelism int
	// Traces, when non-nil, is a shared trace cache RunSuite draws from
	// instead of building a private one. Drivers that run several
	// sweeps over the same specs (benchmark iterations) pin the specs
	// in a shared cache once so repeat sweeps skip generation.
	Traces *workload.TraceCache

	// CellHook, when set, runs at the start of every cell (fault
	// injection in tests — see internal/faultinject). An error fails
	// the cell; a panic is recovered like any cell panic.
	CellHook func(config, workload string) error

	// Progress, when set, observes every cell lifecycle transition of
	// the sweep (started / finished / failed / restored).
	// Called concurrently from worker goroutines; see ProgressFunc.
	Progress ProgressFunc

	// Checkpoint, when non-nil, persists every completed cell to the
	// store so an interrupted sweep can be resumed.
	Checkpoint *CheckpointStore
	// Resume makes RunSuite consult Checkpoint before running a cell
	// and reuse any valid record with a matching fingerprint. Corrupt
	// records are quarantined and their cells re-run.
	Resume bool
}

// DefaultOptions returns the paperfigs defaults.
func DefaultOptions() Options {
	return Options{Warmup: 2_000_000, Measure: 1_000_000}
}

// QuickOptions returns a reduced setting for benchmarks and smoke runs.
func QuickOptions() Options {
	return Options{Warmup: 800_000, Measure: 400_000}
}

// RunResult couples one (configuration, workload) run with its
// results.
type RunResult struct {
	Config   string
	Workload string
	Category workload.Category
	R        cpu.Results
	// Ent holds Entangling-internal statistics when the configuration
	// runs an Entangling prefetcher (Figures 12-15).
	Ent *core.Stats
	// Oracle holds the per-miss look-ahead distance histogram, warmup
	// included, when the configuration runs the "oracle" prefetcher
	// (Figure 1). Omitted otherwise, so every other cell encodes as
	// before.
	Oracle *stats.Histogram `json:",omitempty"`
}

// RunTrace executes one configuration over a pre-materialized workload
// trace (see workload.TraceCache). The walker is deterministic, so
// replaying its materialized stream produces the same machine state as
// walking the program, but the generation cost is paid once per trace
// instead of once per run.
func RunTrace(cfg Configuration, spec workload.Spec, tr *workload.Trace, warmup, measure uint64) (RunResult, error) {
	return RunTraceCtx(context.Background(), cfg, spec, tr, warmup, measure)
}

// RunTraceCtx is RunTrace with cooperative cancellation: the
// simulation loop polls ctx and abandons the run with ctx's error when
// it fires. context.Background() keeps the uncancellable fast path.
func RunTraceCtx(ctx context.Context, cfg Configuration, spec workload.Spec, tr *workload.Trace, warmup, measure uint64) (RunResult, error) {
	mc, err := machineConfig(cfg, spec.Params.Seed)
	if err != nil {
		return RunResult{}, err
	}
	m, r, err := runMachine(ctx, mc, tr, warmup, measure)
	if err != nil {
		return RunResult{}, err
	}
	return runResultFrom(cfg, spec, m, r), nil
}

// runMachine runs a new machine of mc over tr. The machine replays
// the trace's presolved branch and L1D outcomes for mc, which the
// first run over the trace that needs them builds and every later one
// shares (see cpu.Presolve and workload.Trace.Derive).
func runMachine(ctx context.Context, mc cpu.Config, tr *workload.Trace, warmup, measure uint64) (*cpu.Machine, cpu.Results, error) {
	d, err := tr.Derive(mc.PresolveKey(), func() (workload.Derived, error) {
		pre, err := cpu.Presolve(tr.Packed, mc)
		if err != nil {
			return nil, err
		}
		return pre, nil
	})
	if err != nil {
		return nil, cpu.Results{}, err
	}
	m := cpu.New(mc)
	r, err := m.RunPresolvedCtx(ctx, d.(*cpu.Presolved), warmup, measure)
	return m, r, err
}

// runResultFrom packages a finished machine's results as the cell's
// RunResult.
func runResultFrom(cfg Configuration, spec workload.Spec, m *cpu.Machine, r cpu.Results) RunResult {
	out := RunResult{Config: cfg.Name, Workload: spec.Name, Category: spec.Params.Category, R: r}
	switch pf := m.Prefetcher().(type) {
	case *core.Entangling:
		s := pf.Stats()
		out.Ent = &s
	case *oracle.LookaheadOracle:
		out.Oracle = pf.Distances
	}
	return out
}

// machineConfig assembles the simulated machine for a configuration.
func machineConfig(cfg Configuration, salt uint64) (cpu.Config, error) {
	mc := cpu.DefaultConfig()
	if cfg.IdealL1I {
		mc.L1I.Ideal = true
	}
	if cfg.L1IWays > 0 {
		mc.L1I.Ways = cfg.L1IWays
	}
	if cfg.Physical {
		mc.PhysicalAddresses = true
		mc.TranslatorSalt = salt
	}
	if cfg.Prefetcher != "" && cfg.Prefetcher != "no" {
		f, err := prefetch.Lookup(cfg.Prefetcher)
		if err != nil {
			return cpu.Config{}, err
		}
		mc.Prefetcher = f
	}
	return mc, nil
}
