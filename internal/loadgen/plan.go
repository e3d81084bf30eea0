// Package loadgen replays mixed job-submission workloads against a
// running node and reduces what happened into a versioned, machine-
// checkable report: admission-to-result latency percentiles, cache
// hit-rate, and an error taxonomy keyed by the server's machine-
// readable rejection reasons. It is the proving ground for the
// multi-tenant server — CI replays a pinned plan against a freshly
// booted node and fails the build when p99 latency or hit-rate
// regresses past checked-in thresholds.
//
// Plans are deterministic: every submission's shape is a pure function
// of (seed, op index), independent of scheduling, so two replays of
// the same plan against equivalent nodes submit byte-identical work.
// The timing they observe of course differs — that is the measurement.
package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// PlanSchemaVersion identifies the plan file layout.
const PlanSchemaVersion = 1

// The submission mix kinds a plan weights.
const (
	// KindDedupHeavy resubmits jobs from a small fixed pool, so most
	// submissions dedupe onto live or remembered jobs.
	KindDedupHeavy = "dedup-heavy"
	// KindCacheCold submits a unique sweep every time (distinct warmup
	// window → distinct cell fingerprints), defeating every cache tier.
	KindCacheCold = "cache-cold"
	// KindTraceUpload ingests small synthetic ENTRACE1 payloads drawn
	// from a fixed seed pool (so some uploads dedupe server-side).
	KindTraceUpload = "trace-upload"
	// KindFaultPlan submits jobs carrying a deterministic fault plan
	// (rejected 403 for tenants without the fault grant — that
	// rejection is itself a measured outcome).
	KindFaultPlan = "fault-plan"
	// KindCancelMid submits a job and cancels it immediately,
	// exercising the cancel/ownership path under load.
	KindCancelMid = "cancel-mid-job"
)

// knownKinds guards plan validation.
var knownKinds = map[string]bool{
	KindDedupHeavy:  true,
	KindCacheCold:   true,
	KindTraceUpload: true,
	KindFaultPlan:   true,
	KindCancelMid:   true,
}

// MixEntry weights one submission kind in the replay.
type MixEntry struct {
	Kind   string `json:"kind"`
	Weight int    `json:"weight"`
}

// TenantLane is one tenant identity submitting load. An empty Tenants
// list replays anonymously (open server).
type TenantLane struct {
	Name string `json:"name"`
	Key  string `json:"key"`
}

// Plan is a replayable load description.
type Plan struct {
	SchemaVersion int    `json:"schema_version"`
	Seed          uint64 `json:"seed"`
	// Submissions is the total operation count across all lanes.
	Submissions int `json:"submissions"`
	// Concurrency is the number of parallel submitters per tenant lane
	// (default 4).
	Concurrency int `json:"concurrency,omitempty"`
	// Warmup and Measure are the base simulation windows; cache-cold
	// ops perturb Warmup to mint unique cells.
	Warmup  uint64 `json:"warmup"`
	Measure uint64 `json:"measure"`
	// Configurations and Workloads are the pools job shapes draw from;
	// names must exist in the server's registries.
	Configurations []string `json:"configurations"`
	Workloads      []string `json:"workloads"`
	// TraceInstructions sizes synthetic trace uploads (default 3000).
	TraceInstructions uint64 `json:"trace_instructions,omitempty"`
	// Tenants are the identities load is submitted as.
	Tenants []TenantLane `json:"tenants,omitempty"`
	// Mix weights the submission kinds.
	Mix []MixEntry `json:"mix"`
}

// DefaultPlan returns a small mixed plan against an open node.
func DefaultPlan() Plan {
	return Plan{
		SchemaVersion:  PlanSchemaVersion,
		Seed:           1,
		Submissions:    64,
		Concurrency:    4,
		Warmup:         5_000,
		Measure:        2_000,
		Configurations: []string{"no", "nextline", "entangling-4k"},
		Workloads:      []string{"crypto-00", "int-00", "srv-00"},
		Mix: []MixEntry{
			{Kind: KindDedupHeavy, Weight: 4},
			{Kind: KindCacheCold, Weight: 2},
			{Kind: KindTraceUpload, Weight: 1},
			{Kind: KindCancelMid, Weight: 1},
		},
	}
}

// Validate reports the first structural problem with the plan.
func (p Plan) Validate() error {
	if p.SchemaVersion != PlanSchemaVersion {
		return fmt.Errorf("loadgen: plan schema %d, want %d", p.SchemaVersion, PlanSchemaVersion)
	}
	if p.Submissions <= 0 {
		return errors.New("loadgen: plan needs a positive submission count")
	}
	if p.Concurrency < 0 {
		return errors.New("loadgen: negative concurrency")
	}
	if p.Measure == 0 {
		return errors.New("loadgen: plan measure window must be positive")
	}
	if len(p.Configurations) == 0 || len(p.Workloads) == 0 {
		return errors.New("loadgen: plan needs configuration and workload pools")
	}
	if len(p.Mix) == 0 {
		return errors.New("loadgen: plan needs a non-empty mix")
	}
	total := 0
	seen := map[string]bool{}
	for _, m := range p.Mix {
		if !knownKinds[m.Kind] {
			return fmt.Errorf("loadgen: unknown mix kind %q", m.Kind)
		}
		if seen[m.Kind] {
			return fmt.Errorf("loadgen: duplicate mix kind %q", m.Kind)
		}
		seen[m.Kind] = true
		if m.Weight <= 0 {
			return fmt.Errorf("loadgen: mix kind %q needs a positive weight", m.Kind)
		}
		total += m.Weight
	}
	if total <= 0 {
		return errors.New("loadgen: mix weights sum to zero")
	}
	names := map[string]bool{}
	for _, t := range p.Tenants {
		if t.Name == "" || t.Key == "" {
			return errors.New("loadgen: tenant lanes need both name and key")
		}
		if names[t.Name] {
			return fmt.Errorf("loadgen: duplicate tenant lane %q", t.Name)
		}
		names[t.Name] = true
	}
	return nil
}

// withDefaults fills the optional knobs.
func (p Plan) withDefaults() Plan {
	if p.Concurrency == 0 {
		p.Concurrency = 4
	}
	if p.TraceInstructions == 0 {
		p.TraceInstructions = 3_000
	}
	return p
}

// ParsePlan strictly decodes one plan document: unknown fields and
// trailing data are rejected, then the plan is validated.
func ParsePlan(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("loadgen: parsing plan: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Plan{}, errors.New("loadgen: trailing data after plan document")
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// LoadPlanFile reads and parses a plan file.
func LoadPlanFile(path string) (Plan, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Plan{}, fmt.Errorf("loadgen: %w", err)
	}
	return ParsePlan(bytes.NewReader(b))
}
