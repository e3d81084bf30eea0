package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"entangling/internal/stats"
	"entangling/internal/workload"
)

// SuiteResults indexes the runs of a configurations x workloads sweep.
type SuiteResults struct {
	// Runs[config][workload] holds the run result.
	Runs map[string]map[string]RunResult
	// ConfigOrder preserves the configuration order for rendering.
	ConfigOrder []string
	// WorkloadOrder preserves the workload order.
	WorkloadOrder []string
	// Failed lists the cells that produced no result, in deterministic
	// order. Non-empty exactly when RunSuite also returned an error:
	// the sweep degraded to these named holes instead of throwing away
	// its completed cells.
	Failed []*CellError
	// Restored counts cells a cache tier of the resolver served
	// instead of running them: checkpoint records under
	// Options.Resume, and results an earlier sweep over the same
	// Resolver produced.
	Restored int
}

// ErrCellCanceled marks a cell (or a run of the PQ study) abandoned
// because its context was canceled — it did not fail; it never
// (fully) ran. Test with errors.Is against RunSuite's error or a
// CellError.
var ErrCellCanceled = errors.New("cell canceled")

// canceled returns ErrCellCanceled wrapping ctx's error once ctx is
// done, else nil.
func canceled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCellCanceled, err)
	}
	return nil
}

// ErrCellPanic marks a cell whose simulation panicked; the panic was
// recovered and degraded to this error so the rest of the sweep
// survived.
var ErrCellPanic = errors.New("cell panicked")

// CellError attributes a sweep failure to its (configuration,
// workload) cell.
type CellError struct {
	Config   string
	Workload string
	// Err is the cell's failure; unwrappable, so errors.Is(err,
	// ErrCellPanic) etc. see through the cell context.
	Err error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell %s/%s: %v", e.Config, e.Workload, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// Canceled reports whether the cell was abandoned by cancellation
// rather than failing on its own.
func (e *CellError) Canceled() bool { return errors.Is(e.Err, ErrCellCanceled) }

// RunSuite executes every configuration over every workload. See
// Resolver.RunSuite for the execution model.
func RunSuite(specs []workload.Spec, cfgs []Configuration, opt Options) (*SuiteResults, error) {
	return RunSuiteCtx(context.Background(), specs, cfgs, opt)
}

// RunSuiteCtx executes every configuration over every workload with
// cooperative cancellation and per-cell fault isolation, through a
// resolver of its own: NewResolver(opt).RunSuite(ctx, specs, cfgs, opt).
func RunSuiteCtx(ctx context.Context, specs []workload.Spec, cfgs []Configuration, opt Options) (*SuiteResults, error) {
	return NewResolver(opt).RunSuite(ctx, specs, cfgs, opt)
}

// RunSuite resolves every configuration over every workload, with
// opt's windows, Parallelism and Progress; the resolver's own options
// decide the trace cache, the checkpoint store and the cell hook.
//
// Each workload's instruction stream is materialized once in the
// resolver's trace cache and reused read-only by every configuration:
// the sweep pays N_specs generations instead of N_cfgs x N_specs.
// Cells are issued workload-major so the cells sharing a trace run
// close together: the sweep reserves one trace use per cell and
// releases it as the cell resolves, so each trace is evicted as soon
// as its last configuration finishes, resident traces stay
// proportional to the worker count, and a trace whose cells a cache
// tier serves is never built.
//
// Every cell resolves exactly once. A cell that panics or errors
// degrades to a named *CellError in the returned partial SuiteResults
// — one bad cell does not throw away every completed cell. Canceling
// ctx abandons the remaining cells with ErrCellCanceled, which is
// distinguishable from genuine failures.
//
// On any failure the error is non-nil and SuiteResults.Failed names
// every unfinished cell; the completed cells in Runs remain usable.
func (r *Resolver) RunSuite(ctx context.Context, specs []workload.Spec, cfgs []Configuration, opt Options) (*SuiteResults, error) {
	out := &SuiteResults{Runs: make(map[string]map[string]RunResult)}
	for _, c := range cfgs {
		out.ConfigOrder = append(out.ConfigOrder, c.Name)
		out.Runs[c.Name] = make(map[string]RunResult, len(specs))
	}
	for _, s := range specs {
		out.WorkloadOrder = append(out.WorkloadOrder, s.Name)
	}
	if len(cfgs) == 0 {
		return out, nil
	}

	traces := r.base.Traces
	traceLen := opt.Warmup + opt.Measure
	for _, s := range specs {
		traces.Reserve(s, traceLen, len(cfgs))
	}

	cells := make(chan Cell)
	results := make(chan Resolved, 8)
	workers := opt.Parallelism
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range cells {
				res := r.Resolve(ctx, c, opt.Progress)
				traces.Release(c.Workload, traceLen)
				results <- res
			}
		}()
	}
	go func() {
		for _, s := range specs {
			for _, c := range cfgs {
				cells <- Cell{Config: c, Workload: s, Warmup: opt.Warmup, Measure: opt.Measure}
			}
		}
		close(cells)
		wg.Wait()
		close(results)
	}()

	// Every cell failure is collected (not just the first), each as a
	// *CellError naming its (configuration, workload) cell, so a
	// multi-failure sweep report says exactly which cells died and why.
	var cellErrs []*CellError
	for res := range results {
		if res.Err != nil {
			cellErrs = append(cellErrs, res.Err)
			continue
		}
		if res.Source == SourceCacheMemory || res.Source == SourceCacheStore {
			out.Restored++
		}
		out.Runs[res.Result.Config][res.Result.Workload] = res.Result
	}
	if len(cellErrs) > 0 {
		// Worker scheduling is nondeterministic; sort so the combined
		// error reads the same across runs and parallelism settings.
		sort.Slice(cellErrs, func(i, j int) bool {
			return cellErrs[i].Error() < cellErrs[j].Error()
		})
		out.Failed = cellErrs
		joined := make([]error, len(cellErrs))
		for i, e := range cellErrs {
			joined[i] = e
		}
		return out, fmt.Errorf("harness: %d of %d runs failed: %w",
			len(cellErrs), len(cfgs)*len(specs), errors.Join(joined...))
	}
	return out, nil
}

// RunCell runs one cell exactly once: the simulation over the trace
// from opt.Traces (with panic recovery), then checkpointing of its
// result. The returned *CellError (nil on success) carries the cell
// name and the cause. A failed cell is not re-run: the simulation is
// deterministic, so it would fail again the same way. RunCell emits
// no progress events (Resolver.Resolve does) and takes no trace
// reference; a caller running several cells over one trace Reserves
// them in opt.Traces first (see workload.TraceCache). With a nil
// opt.Traces the trace is built for this cell alone.
func RunCell(ctx context.Context, cfg Configuration, spec workload.Spec, opt Options) (RunResult, *CellError) {
	fail := func(err error) (RunResult, *CellError) {
		return RunResult{}, &CellError{Config: cfg.Name, Workload: spec.Name, Err: err}
	}
	if err := canceled(ctx); err != nil {
		return fail(err)
	}
	res, err := execCell(ctx, cfg, spec, opt)
	if err != nil {
		return fail(err)
	}
	if opt.Checkpoint != nil {
		rec := CellRecord{
			SchemaVersion: CheckpointSchemaVersion,
			Fingerprint:   CellFingerprint(cfg, spec, opt.Warmup, opt.Measure),
			Config:        cfg.Name,
			Workload:      spec.Name,
			Result:        res,
		}
		if serr := opt.Checkpoint.Save(rec); serr != nil {
			// A result that cannot be persisted would silently re-run
			// after a crash; fail loudly instead.
			return fail(fmt.Errorf("checkpointing result: %w", serr))
		}
	}
	return res, nil
}

// execCell simulates one cell. Panics anywhere in the cell — the fault
// hook, trace materialization, the simulation itself — are recovered
// into ErrCellPanic; a context error comes back as ErrCellCanceled;
// anything else is the cell's own failure.
func execCell(ctx context.Context, cfg Configuration, spec workload.Spec, opt Options) (res RunResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", ErrCellPanic, p)
		}
	}()

	if opt.CellHook != nil {
		if herr := opt.CellHook(cfg.Name, spec.Name); herr != nil {
			return RunResult{}, herr
		}
	}
	cache := opt.Traces
	if cache == nil {
		cache = workload.NewTraceCache()
	}
	tr, terr := cache.Get(spec, opt.Warmup+opt.Measure)
	if terr != nil {
		return RunResult{}, terr
	}
	res, rerr := RunTraceCtx(ctx, cfg, spec, tr, opt.Warmup, opt.Measure)
	if rerr != nil {
		if cerr := canceled(ctx); cerr != nil {
			return RunResult{}, cerr
		}
		return RunResult{}, rerr
	}
	return res, nil
}

// baselineFor returns the baseline run for a workload (the "no"
// configuration), which normalizations and coverage are computed
// against.
func (s *SuiteResults) baselineFor(wl string) (RunResult, bool) {
	base, ok := s.Runs["no"]
	if !ok {
		return RunResult{}, false
	}
	r, ok := base[wl]
	return r, ok
}

// nan pads vector slots whose value is undefined for a workload.
var nan = math.NaN()

// NormalizedIPC returns each workload's IPC under cfg divided by the
// baseline IPC. The vector is aligned with WorkloadOrder: slots whose
// run or baseline is missing (or whose baseline IPC is zero) hold NaN
// rather than being skipped, so element i always describes
// WorkloadOrder[i]. Aggregations filter with stats.FilterFinite.
func (s *SuiteResults) NormalizedIPC(cfg string) []float64 {
	out := make([]float64, len(s.WorkloadOrder))
	for i, wl := range s.WorkloadOrder {
		r, ok := s.Runs[cfg][wl]
		b, bok := s.baselineFor(wl)
		if !ok || !bok || b.R.IPC == 0 {
			out[i] = nan
			continue
		}
		out[i] = r.R.IPC / b.R.IPC
	}
	return out
}

// GeomeanSpeedup returns the geometric-mean normalized IPC of cfg,
// computed over the workloads with a usable baseline — the same subset
// for every configuration. If cfg is missing a run for any workload of
// that subset the subsets would diverge between configurations, so the
// result is NaN (loud in every rendered figure) instead of a silently
// incomparable mean over fewer workloads.
func (s *SuiteResults) GeomeanSpeedup(cfg string) float64 {
	var vals []float64
	for i, v := range s.NormalizedIPC(cfg) {
		wl := s.WorkloadOrder[i]
		b, bok := s.baselineFor(wl)
		if !bok || b.R.IPC == 0 {
			continue // no baseline: undefined for every configuration
		}
		if math.IsNaN(v) {
			return nan // baseline exists but cfg's run is missing
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return 0
	}
	return stats.Geomean(vals)
}

// MissRatios returns each workload's L1I miss ratio under cfg, aligned
// with WorkloadOrder (NaN for missing runs).
func (s *SuiteResults) MissRatios(cfg string) []float64 {
	out := make([]float64, len(s.WorkloadOrder))
	for i, wl := range s.WorkloadOrder {
		if r, ok := s.Runs[cfg][wl]; ok {
			out[i] = r.R.L1I.MissRatio()
		} else {
			out[i] = nan
		}
	}
	return out
}

// Coverage returns per-workload prefetch coverage vs baseline misses
// (the paper's "percentage of L1I misses covered by prefetching"),
// aligned with WorkloadOrder (NaN where the run or baseline is missing
// or the baseline had no misses).
func (s *SuiteResults) Coverage(cfg string) []float64 {
	out := make([]float64, len(s.WorkloadOrder))
	for i, wl := range s.WorkloadOrder {
		r, ok := s.Runs[cfg][wl]
		b, bok := s.baselineFor(wl)
		if !ok || !bok || b.R.L1I.Misses == 0 {
			out[i] = nan
			continue
		}
		out[i] = 1 - float64(r.R.L1I.Misses)/float64(b.R.L1I.Misses)
	}
	return out
}

// Accuracy returns per-workload prefetch accuracy under cfg, aligned
// with WorkloadOrder (NaN for missing runs).
func (s *SuiteResults) Accuracy(cfg string) []float64 {
	out := make([]float64, len(s.WorkloadOrder))
	for i, wl := range s.WorkloadOrder {
		if r, ok := s.Runs[cfg][wl]; ok {
			out[i] = r.R.L1I.Accuracy()
		} else {
			out[i] = nan
		}
	}
	return out
}

// StorageKB returns the configuration's prefetcher budget in KB (0 for
// baseline/cache-growth configurations). The value is taken from the
// first workload in WorkloadOrder with a run — a deterministic choice,
// unlike Go map iteration; Validate checks all runs agree on it.
func (s *SuiteResults) StorageKB(cfg string) float64 {
	for _, wl := range s.WorkloadOrder {
		if r, ok := s.Runs[cfg][wl]; ok {
			return float64(r.R.StorageBits) / 8 / 1024
		}
	}
	return 0
}

// CategoryMean aggregates a per-run metric by workload category,
// returning means and standard deviations keyed by category (the
// grouping of Figures 12-15).
func (s *SuiteResults) CategoryMean(cfg string, metric func(RunResult) (float64, bool)) (map[workload.Category]float64, map[workload.Category]float64) {
	byCat := map[workload.Category][]float64{}
	for _, wl := range s.WorkloadOrder {
		r, ok := s.Runs[cfg][wl]
		if !ok {
			continue
		}
		if v, ok := metric(r); ok {
			byCat[r.Category] = append(byCat[r.Category], v)
		}
	}
	means := map[workload.Category]float64{}
	devs := map[workload.Category]float64{}
	for c, vs := range byCat {
		means[c] = stats.Mean(vs)
		devs[c] = stats.Stddev(vs)
	}
	return means, devs
}

// Categories returns the categories present, sorted.
func (s *SuiteResults) Categories() []workload.Category {
	seen := map[workload.Category]bool{}
	for _, wl := range s.WorkloadOrder {
		for _, cfgRuns := range s.Runs {
			if r, ok := cfgRuns[wl]; ok {
				seen[r.Category] = true
				break
			}
		}
	}
	var out []string
	for c := range seen {
		out = append(out, string(c))
	}
	sort.Strings(out)
	cats := make([]workload.Category, len(out))
	for i, c := range out {
		cats[i] = workload.Category(c)
	}
	return cats
}

// TimelyFractions returns, per workload, the fraction of cfg's
// prefetch fills that served a demand fully ahead of need.
func (s *SuiteResults) TimelyFractions(cfg string) []float64 {
	return s.lifecycleFractions(cfg, func(r RunResult) uint64 { return r.R.Lifecycle.Timely })
}

// LateFractions returns, per workload, the fraction of cfg's prefetch
// fills a demand caught in flight (partial latency hidden).
func (s *SuiteResults) LateFractions(cfg string) []float64 {
	return s.lifecycleFractions(cfg, func(r RunResult) uint64 { return r.R.Lifecycle.Late })
}

// InaccurateFractions returns, per workload, the fraction of cfg's
// prefetch fills evicted unused and never demanded again.
func (s *SuiteResults) InaccurateFractions(cfg string) []float64 {
	return s.lifecycleFractions(cfg, func(r RunResult) uint64 { return r.R.Lifecycle.Inaccurate() })
}

// lifecycleFractions returns a WorkloadOrder-aligned vector (NaN where
// the run is missing or had no prefetch fills to classify).
func (s *SuiteResults) lifecycleFractions(cfg string, num func(RunResult) uint64) []float64 {
	out := make([]float64, len(s.WorkloadOrder))
	for i, wl := range s.WorkloadOrder {
		r, ok := s.Runs[cfg][wl]
		if !ok || r.R.L1I.PrefetchFills == 0 {
			out[i] = nan
			continue
		}
		out[i] = float64(num(r)) / float64(r.R.L1I.PrefetchFills)
	}
	return out
}

// L1IStallShares returns, per workload, the share of attributed stall
// cycles the L1I is responsible for under cfg — the top-down number a
// prefetcher exists to shrink. Aligned with WorkloadOrder (NaN where
// the run is missing or attributed no stalls).
func (s *SuiteResults) L1IStallShares(cfg string) []float64 {
	out := make([]float64, len(s.WorkloadOrder))
	for i, wl := range s.WorkloadOrder {
		r, ok := s.Runs[cfg][wl]
		if !ok || r.R.Stalls.Total() == 0 {
			out[i] = nan
			continue
		}
		out[i] = float64(r.R.Stalls.L1IMiss) / float64(r.R.Stalls.Total())
	}
	return out
}

// Validate checks the sweep is complete (every config ran every
// workload) and internally consistent (every run of a configuration
// reports the same prefetcher storage budget — the budget is a
// property of the configuration, so disagreement means corrupted
// results).
func (s *SuiteResults) Validate() error {
	for _, c := range s.ConfigOrder {
		var budget uint64
		var budgetWl string
		for i, wl := range s.WorkloadOrder {
			r, ok := s.Runs[c][wl]
			if !ok {
				return fmt.Errorf("harness: missing run %s/%s", c, wl)
			}
			if i == 0 {
				budget, budgetWl = r.R.StorageBits, wl
			} else if r.R.StorageBits != budget {
				return fmt.Errorf("harness: %s reports storage %d bits on %s but %d bits on %s",
					c, budget, budgetWl, r.R.StorageBits, wl)
			}
		}
	}
	return nil
}
