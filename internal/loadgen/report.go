package loadgen

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// ReportSchemaVersion identifies the LOAD_*.json layout. Bump on any
// incompatible change so downstream tooling refuses rather than
// misreads. v3 removed v2's model-answer lanes (cells_predicted,
// cells_fallback, fallback_rate and the approx_* latency stats).
const ReportSchemaVersion = 3

// ReportKind tags report documents.
const ReportKind = "entangling-loadgen-report"

// LatencyStats summarizes one latency population in milliseconds,
// nearest-rank percentiles.
type LatencyStats struct {
	Count int     `json:"count"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

// summarize reduces a sample set to LatencyStats. The input is
// consumed (sorted in place).
func summarize(samples []float64) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	sort.Float64s(samples)
	rank := func(p float64) float64 {
		// Nearest-rank: the smallest sample ≥ the p-fraction of the
		// population. Exact for small N, no interpolation surprises.
		i := int(math.Ceil(p*float64(len(samples)))) - 1
		if i < 0 {
			i = 0
		}
		return samples[i]
	}
	return LatencyStats{
		Count: len(samples),
		P50:   rank(0.50),
		P90:   rank(0.90),
		P99:   rank(0.99),
		Max:   samples[len(samples)-1],
	}
}

// TenantOutcome is one lane's slice of the replay.
type TenantOutcome struct {
	Ops    int               `json:"ops"`
	Errors map[string]uint64 `json:"errors,omitempty"`
}

// Report is the versioned LOAD_*.json document a replay produces.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Kind          string `json:"kind"`
	// Seed and Submissions echo the plan, so a report names the load
	// that produced it.
	Seed        uint64 `json:"seed"`
	Submissions int    `json:"submissions"`
	ElapsedMS   int64  `json:"elapsed_ms"`

	// Ops counts operations attempted per mix kind.
	Ops map[string]uint64 `json:"ops"`
	// States counts terminal job states observed (completed, canceled,
	// degraded, failed) across waited-on jobs.
	States map[string]uint64 `json:"states,omitempty"`
	// Errors is the rejection taxonomy: the server's machine-readable
	// reason (quota_cells_per_sec, queue_full, forbidden, ...) or
	// "transport" for connection-level failures.
	Errors map[string]uint64 `json:"errors,omitempty"`

	// Deduped counts submissions answered by an existing identical
	// job; TracesUploaded/TracesDeduped count the trace-upload lane.
	Deduped        uint64 `json:"deduped"`
	TracesUploaded uint64 `json:"traces_uploaded"`
	TracesDeduped  uint64 `json:"traces_deduped"`

	// CellsDone/CellsSimulated aggregate the cell provenance of every
	// waited-on result; CacheHitRate = 1 - simulated/done (failed
	// cells excluded from both).
	CellsDone      uint64  `json:"cells_done"`
	CellsSimulated uint64  `json:"cells_simulated"`
	CacheHitRate   float64 `json:"cache_hit_rate"`

	// SubmitLatencyMS measures the POST round trip; E2ELatencyMS
	// measures admission-to-result (submit start to terminal result)
	// for every job the replay waited on.
	SubmitLatencyMS LatencyStats `json:"submit_latency_ms"`
	E2ELatencyMS    LatencyStats `json:"e2e_latency_ms"`

	// PerTenant breaks ops and errors down by submitting lane ("" for
	// anonymous load), keys sorted in the serialized form.
	PerTenant map[string]*TenantOutcome `json:"per_tenant,omitempty"`
}

// Validate reports the first structural problem with a report.
func (r Report) Validate() error {
	if r.SchemaVersion != ReportSchemaVersion {
		return fmt.Errorf("loadgen: report schema %d, want %d", r.SchemaVersion, ReportSchemaVersion)
	}
	if r.Kind != ReportKind {
		return fmt.Errorf("loadgen: report kind %q, want %q", r.Kind, ReportKind)
	}
	if r.Submissions <= 0 {
		return errors.New("loadgen: report has no submissions")
	}
	if r.CacheHitRate < 0 || r.CacheHitRate > 1 {
		return fmt.Errorf("loadgen: cache hit rate %v outside [0,1]", r.CacheHitRate)
	}
	return nil
}

// ParseReport strictly decodes one report document.
func ParseReport(rd io.Reader) (Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		return Report{}, fmt.Errorf("loadgen: parsing report: %w", err)
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return Report{}, errors.New("loadgen: trailing data after report document")
	}
	if err := r.Validate(); err != nil {
		return Report{}, err
	}
	return r, nil
}

// LoadReportFile reads and parses a LOAD_*.json file.
func LoadReportFile(path string) (Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Report{}, fmt.Errorf("loadgen: %w", err)
	}
	return ParseReport(bytes.NewReader(b))
}

// WriteFile serializes the report (indented, trailing newline).
func (r Report) WriteFile(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("loadgen: encoding report: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Thresholds are the CI regression gates: zero fields are unchecked.
type Thresholds struct {
	// MaxE2EP99MS fails the check when admission-to-result p99 exceeds
	// it.
	MaxE2EP99MS float64 `json:"max_e2e_p99_ms,omitempty"`
	// MinCacheHitRate fails the check when the replay's aggregate cell
	// cache hit-rate falls below it.
	MinCacheHitRate float64 `json:"min_cache_hit_rate,omitempty"`
	// MaxTransportErrors fails the check when connection-level errors
	// exceed it (CI wants exactly 0: every op must reach the server).
	MaxTransportErrors uint64 `json:"max_transport_errors,omitempty"`
	// FailOnTransport enables the MaxTransportErrors gate even at 0.
	FailOnTransport bool `json:"fail_on_transport,omitempty"`
}

// Check evaluates every configured gate and returns the first
// violation (nil when all pass).
func (r Report) Check(t Thresholds) error {
	if t.MaxE2EP99MS > 0 && r.E2ELatencyMS.P99 > t.MaxE2EP99MS {
		return fmt.Errorf("loadgen: e2e p99 %.1fms exceeds threshold %.1fms",
			r.E2ELatencyMS.P99, t.MaxE2EP99MS)
	}
	if t.MinCacheHitRate > 0 && r.CacheHitRate < t.MinCacheHitRate {
		return fmt.Errorf("loadgen: cache hit rate %.3f below threshold %.3f",
			r.CacheHitRate, t.MinCacheHitRate)
	}
	if t.FailOnTransport || t.MaxTransportErrors > 0 {
		if n := r.Errors["transport"]; n > t.MaxTransportErrors {
			return fmt.Errorf("loadgen: %d transport errors exceed threshold %d",
				n, t.MaxTransportErrors)
		}
	}
	return nil
}
