// Package entangling is the public API of this reproduction of
// "A Cost-Effective Entangling Prefetcher for Instructions" (Ros &
// Jimborean, ISCA 2021).
//
// It exposes three layers:
//
//   - Single runs: build a workload (Workloads, CloudWorkloads, or a
//     custom Params), pick a configuration, and Run it on the simulated
//     machine to get IPC, miss-rate, coverage and accuracy numbers.
//   - Suites and figures: RunSuite sweeps configurations over workload
//     suites; the Fig*/Table* helpers reproduce every figure and table
//     of the paper's evaluation section.
//   - Extension: RegisterPrefetcher plugs a user-defined L1I prefetcher
//     (implementing Prefetcher against the event stream the simulated
//     L1I emits) into the same harness, so it can be compared against
//     the paper's lineup.
//
// All runs are deterministic functions of (workload seed,
// configuration).
package entangling

import (
	"context"

	"entangling/internal/cache"
	"entangling/internal/core"
	"entangling/internal/cpu"
	"entangling/internal/energy"
	"entangling/internal/harness"
	"entangling/internal/prefetch"
	"entangling/internal/stats"
	"entangling/internal/workload"
)

// Core simulator types, re-exported for users of the public API.
type (
	// Prefetcher is the L1I prefetcher interface (the IPC-1-style hook
	// set). Implement it to plug a custom prefetcher into the harness.
	Prefetcher = prefetch.Prefetcher
	// Issuer lets a prefetcher enqueue prefetches into the L1I.
	Issuer = prefetch.Issuer
	// PrefetcherBase provides no-op hooks for embedding.
	PrefetcherBase = prefetch.Base
	// AccessEvent, FillEvent and EvictEvent form the L1I event stream
	// prefetchers observe.
	AccessEvent = cache.AccessEvent
	FillEvent   = cache.FillEvent
	EvictEvent  = cache.EvictEvent
	// BranchEvent is delivered for every branch the front-end predicts.
	BranchEvent = prefetch.BranchEvent

	// Results holds one run's measurements.
	Results = cpu.Results
	// PrefetchLifecycle breaks prefetches down by fate (timely / late /
	// early-evicted / inaccurate); Results.Lifecycle carries one.
	PrefetchLifecycle = stats.PrefetchLifecycle
	// StallBreakdown attributes front-end stall cycles to causes;
	// Results.Stalls carries one.
	StallBreakdown = stats.StallBreakdown
	// PrefetchFeedback is the lifecycle feedback (late/useless) the
	// simulator routes back to prefetchers implementing FeedbackSink.
	PrefetchFeedback = prefetch.Feedback

	// WorkloadSpec names a synthetic workload and its parameters.
	WorkloadSpec = workload.Spec
	// WorkloadParams fully describes a synthetic workload.
	WorkloadParams = workload.Params
	// Category is a workload class (crypto / int / fp / srv / cloud).
	Category = workload.Category

	// Configuration names a machine setup (prefetcher choice, ideal
	// L1I, larger L1I, physical training).
	Configuration = harness.Configuration
	// Options control suite runs (warmup, measurement, suite size).
	Options = harness.Options
	// SuiteResults indexes a configurations x workloads sweep.
	SuiteResults = harness.SuiteResults
	// Table is a rendered figure/table (text and CSV).
	Table = harness.Table
	// RunMetrics / SuiteMetrics form the machine-readable metrics
	// export schema (see EXPERIMENTS.md, "Metrics export").
	RunMetrics   = harness.RunMetrics
	SuiteMetrics = harness.SuiteMetrics

	// EnergyModel prices cache accesses (Table IV).
	EnergyModel = energy.Model

	// EntanglingConfig sizes a custom Entangling prefetcher instance.
	EntanglingConfig = core.Config
)

// Workload categories.
const (
	Crypto     = workload.Crypto
	Int        = workload.Int
	FP         = workload.FP
	Srv        = workload.Srv
	Cloud      = workload.Cloud
	JIT        = workload.JIT
	Micro      = workload.Micro
	Serverless = workload.Serverless
)

// RegisterPrefetcher adds a named prefetcher configuration to the
// registry used by Configuration.Prefetcher. Registering an existing
// name panics.
func RegisterPrefetcher(name string, factory func(Issuer) Prefetcher) {
	prefetch.Register(name, factory)
}

// Prefetchers lists the registered configuration names.
func Prefetchers() []string { return prefetch.Names() }

// Workloads returns the CVP-like synthetic suite: perCategory
// workloads in each of crypto, int, fp and srv (the stand-in for the
// paper's 959 CVP traces).
func Workloads(perCategory int) []WorkloadSpec { return workload.CVPSuite(perCategory) }

// CloudWorkloads returns the four CloudSuite-like workloads of
// Figure 16.
func CloudWorkloads() []WorkloadSpec { return workload.CloudSuite() }

// AdversarialWorkloads returns the stress-test suite: JIT-style code
// relocation, interrupt-heavy microservice fan-out, and serverless
// cold-start restarts — shapes built to punish instruction prefetchers.
func AdversarialWorkloads() []WorkloadSpec { return workload.AdversarialSuite() }

// WorkloadPreset returns the base parameters of a category; Vary
// derives seeded variants.
func WorkloadPreset(c Category) WorkloadParams { return workload.Preset(c) }

// VaryWorkload derives a seeded variant of base parameters.
func VaryWorkload(p WorkloadParams, seed uint64) WorkloadParams { return workload.Vary(p, seed) }

// NewEntangling builds an Entangling prefetcher instance with a custom
// configuration (see Entangling2K/4K/8K for the paper's settings).
func NewEntangling(cfg EntanglingConfig, issuer Issuer) Prefetcher { return core.New(cfg, issuer) }

// The paper's Entangling configurations.
var (
	Entangling2K = core.Config2K(core.Virtual)
	Entangling4K = core.Config4K(core.Virtual)
	Entangling8K = core.Config8K(core.Virtual)
)

// Baseline is the no-prefetcher configuration.
var Baseline = harness.Baseline

// StandardConfigurations returns the paper's §IV-B lineup (Figure 6).
func StandardConfigurations() []Configuration { return harness.StandardConfigurations() }

// CompactConfigurations returns the sub-64KB lineup of Figures 7-10.
func CompactConfigurations() []Configuration { return harness.CompactConfigurations() }

// DefaultOptions returns paper-scale run windows; QuickOptions returns
// a fast setting for smoke runs and benchmarks.
func DefaultOptions() Options { return harness.DefaultOptions() }

// QuickOptions returns reduced windows for smoke runs.
func QuickOptions() Options { return harness.QuickOptions() }

// Run executes one configuration over one workload with the given
// instruction windows (warmup discarded, measure measured).
func Run(cfg Configuration, w WorkloadSpec, warmup, measure uint64) (Results, error) {
	r, err := harness.RunCell(context.Background(), cfg, w, harness.Options{Warmup: warmup, Measure: measure})
	if err != nil {
		return Results{}, err
	}
	return r.R, nil
}

// RunSuite sweeps configurations over workloads.
func RunSuite(specs []WorkloadSpec, cfgs []Configuration, opt Options) (*SuiteResults, error) {
	return harness.RunSuite(specs, cfgs, opt)
}

// DefaultEnergyModel returns the 22nm per-access energy constants.
func DefaultEnergyModel() EnergyModel { return energy.Default22nm() }

// Figure and table reproductions (see DESIGN.md for the experiment
// index). The suite passed in must have been produced by RunSuite with
// the appropriate configurations.
// QualityTable renders the per-configuration prefetch-lifecycle and
// stall-attribution summary of a sweep.
var QualityTable = harness.QualityTable

var (
	Fig06   = harness.Fig06
	Fig07   = harness.Fig07
	Fig08   = harness.Fig08
	Fig09   = harness.Fig09
	Fig10   = harness.Fig10
	Fig11   = harness.Fig11
	Fig12   = harness.Fig12
	Fig13   = harness.Fig13
	Fig14   = harness.Fig14
	Fig15   = harness.Fig15
	Fig16   = harness.Fig16
	Table04 = harness.Table04
)

// Fig01 runs its own sweep of the look-ahead oracle.
func Fig01(specs []WorkloadSpec, opt Options) (*Table, error) {
	return harness.Fig01(context.Background(), harness.NewResolver(opt), specs, opt)
}

// Fig02 runs its own sweep measuring the accuracy of fixed look-ahead
// prefetching.
func Fig02(specs []WorkloadSpec, opt Options) (*Table, error) {
	return harness.Fig02(context.Background(), harness.NewResolver(opt), specs, opt)
}
