package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"entangling/internal/cpu"
	"entangling/internal/stats"
)

// This file defines the machine-readable metrics schema the simulator
// exports (see EXPERIMENTS.md, "Metrics export"). The schema is the
// stable contract between the simulator and downstream analysis:
// per-run prefetch quality (timely / late / early-evicted / inaccurate
// with cycles saved) and the top-down stall-cycle attribution.

// MetricsSchemaVersion identifies the exported JSON layout; bump it on
// any incompatible change.
//
// Version history:
//
//	1: initial layout.
//	2: prefetch block gained lead_p50_cycles / lead_p99_cycles, now
//	   that the lead histogram is windowed to the measured interval
//	   like every other counter (it used to accumulate warmup fills,
//	   which made its quantiles unexportable).
const MetricsSchemaVersion = 2

// PrefetchMetrics is the per-run prefetch-quality block.
type PrefetchMetrics struct {
	Requested uint64 `json:"requested"`
	Issued    uint64 `json:"issued"`
	Fills     uint64 `json:"fills"`

	// Lifecycle breakdown over fills (plus in-flight lates).
	Timely       uint64 `json:"timely"`
	Late         uint64 `json:"late"`
	EarlyEvicted uint64 `json:"early_evicted"`
	Inaccurate   uint64 `json:"inaccurate"`

	// LateCyclesSaved is the latency late prefetches still hid;
	// LateCyclesShort is what they failed to hide.
	LateCyclesSaved uint64 `json:"late_cycles_saved"`
	LateCyclesShort uint64 `json:"late_cycles_short"`
	// MeanLeadCycles is the average fill-to-first-use lead of timely
	// prefetches.
	MeanLeadCycles float64 `json:"mean_lead_cycles"`
	// LeadP50Cycles / LeadP99Cycles are bucket-lower-bound quantiles of
	// the measured window's lead histogram (0 when the window had no
	// timely fills).
	LeadP50Cycles int `json:"lead_p50_cycles"`
	LeadP99Cycles int `json:"lead_p99_cycles"`

	Accuracy float64 `json:"accuracy"`
}

// StallMetrics is the per-run stall-attribution block. Total is the
// sum of the buckets (the attribution is complete by construction and
// asserted by tests).
type StallMetrics struct {
	L1IMiss    uint64 `json:"l1i_miss"`
	BTBMiss    uint64 `json:"btb_miss"`
	Mispredict uint64 `json:"mispredict"`
	FTQFull    uint64 `json:"ftq_full"`
	ROBFull    uint64 `json:"rob_full"`
	Total      uint64 `json:"total"`
}

// RunMetrics is the exported record for one (configuration, workload)
// run.
type RunMetrics struct {
	Config     string `json:"config"`
	Workload   string `json:"workload"`
	Category   string `json:"category,omitempty"`
	Prefetcher string `json:"prefetcher"`

	StorageBits  uint64  `json:"storage_bits"`
	Instructions uint64  `json:"instructions"`
	Cycles       uint64  `json:"cycles"`
	IPC          float64 `json:"ipc"`

	L1IAccesses uint64  `json:"l1i_accesses"`
	L1IMisses   uint64  `json:"l1i_misses"`
	L1IMPKI     float64 `json:"l1i_mpki"`
	L1IHitRate  float64 `json:"l1i_hit_rate"`

	// Coverage is vs the sweep's no-prefetch baseline; present only
	// when the suite contains one.
	Coverage *float64 `json:"coverage,omitempty"`
	// Speedup is IPC vs the baseline IPC, when available.
	Speedup *float64 `json:"speedup,omitempty"`

	Prefetch PrefetchMetrics `json:"prefetch"`
	Stalls   StallMetrics    `json:"stalls"`
}

// SuiteMetrics is the top-level export: every run of a sweep in
// deterministic (config-major, workload-minor) order.
type SuiteMetrics struct {
	SchemaVersion int          `json:"schema_version"`
	Runs          []RunMetrics `json:"runs"`
}

// prefetchMetricsFor flattens cache counters and the lifecycle block.
func prefetchMetricsFor(r *cpu.Results) PrefetchMetrics {
	return PrefetchMetrics{
		Requested:       r.L1I.PrefetchRequested,
		Issued:          r.L1I.PrefetchIssued,
		Fills:           r.L1I.PrefetchFills,
		Timely:          r.Lifecycle.Timely,
		Late:            r.Lifecycle.Late,
		EarlyEvicted:    r.Lifecycle.EarlyEvicted,
		Inaccurate:      r.Lifecycle.Inaccurate(),
		LateCyclesSaved: r.Lifecycle.LateCyclesSaved,
		LateCyclesShort: r.Lifecycle.LateCyclesShort,
		MeanLeadCycles:  r.Lifecycle.MeanLead(),
		LeadP50Cycles:   r.LeadP50,
		LeadP99Cycles:   r.LeadP99,
		Accuracy:        r.L1I.Accuracy(),
	}
}

func stallMetricsFor(s stats.StallBreakdown) StallMetrics {
	return StallMetrics{
		L1IMiss:    s.L1IMiss,
		BTBMiss:    s.BTBMiss,
		Mispredict: s.Mispredict,
		FTQFull:    s.FTQFull,
		ROBFull:    s.ROBFull,
		Total:      s.Total(),
	}
}

// MetricsForRun builds the exported record for one run. baseline may
// be nil; when set, coverage and speedup are computed against it.
func MetricsForRun(config, workload, category string, r cpu.Results, baseline *cpu.Results) RunMetrics {
	m := RunMetrics{
		Config:       config,
		Workload:     workload,
		Category:     category,
		Prefetcher:   r.PrefetcherName,
		StorageBits:  r.StorageBits,
		Instructions: r.Instructions,
		Cycles:       r.Cycles,
		IPC:          r.IPC,
		L1IAccesses:  r.L1I.Accesses,
		L1IMisses:    r.L1I.Misses,
		L1IMPKI:      r.L1IMPKI(),
		L1IHitRate:   r.L1IHitRate(),
		Prefetch:     prefetchMetricsFor(&r),
		Stalls:       stallMetricsFor(r.Stalls),
	}
	if baseline != nil {
		if baseline.L1I.Misses > 0 {
			cov := 1 - float64(r.L1I.Misses)/float64(baseline.L1I.Misses)
			m.Coverage = &cov
		}
		if baseline.IPC > 0 {
			sp := r.IPC / baseline.IPC
			m.Speedup = &sp
		}
	}
	return m
}

// Metrics exports every run of the sweep in deterministic order, so
// the same sweep always serializes to the same bytes regardless of
// worker scheduling.
func (s *SuiteResults) Metrics() SuiteMetrics {
	out := SuiteMetrics{SchemaVersion: MetricsSchemaVersion}
	for _, cfg := range s.ConfigOrder {
		for _, wl := range s.WorkloadOrder {
			r, ok := s.Runs[cfg][wl]
			if !ok {
				continue
			}
			var base *cpu.Results
			if b, bok := s.baselineFor(wl); bok && cfg != "no" {
				base = &b.R
			}
			out.Runs = append(out.Runs, MetricsForRun(cfg, wl, string(r.Category), r.R, base))
		}
	}
	return out
}

// WriteMetricsJSON writes the export as indented JSON.
func WriteMetricsJSON(w io.Writer, m SuiteMetrics) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// MetricsFingerprint returns the export exactly as WriteMetricsJSON
// writes it, with the hex SHA-256 of those bytes: the metrics_sha256
// that must match between a local sweep and the job server.
func MetricsFingerprint(m SuiteMetrics) (export []byte, sha string) {
	var b bytes.Buffer
	if err := WriteMetricsJSON(&b, m); err != nil {
		panic(err) // in-memory marshal of a plain struct cannot fail
	}
	sum := sha256.Sum256(b.Bytes())
	return b.Bytes(), hex.EncodeToString(sum[:])
}

// MetricsCSV renders the export as one CSV row per run (a flat subset
// of the JSON schema, for spreadsheet-style analysis).
func MetricsCSV(m SuiteMetrics) string {
	var sb strings.Builder
	sb.WriteString("config,workload,category,prefetcher,storage_bits,instructions,cycles,ipc," +
		"l1i_accesses,l1i_misses,l1i_mpki,l1i_hit_rate,coverage,speedup," +
		"pf_requested,pf_issued,pf_fills,pf_timely,pf_late,pf_early_evicted,pf_inaccurate," +
		"pf_late_cycles_saved,pf_mean_lead_cycles,pf_lead_p50_cycles,pf_lead_p99_cycles,pf_accuracy," +
		"stall_l1i_miss,stall_btb_miss,stall_mispredict,stall_ftq_full,stall_rob_full,stall_total\n")
	opt := func(p *float64) string {
		if p == nil {
			return ""
		}
		return fmt.Sprintf("%.6f", *p)
	}
	for _, r := range m.Runs {
		fmt.Fprintf(&sb, "%s,%s,%s,%s,%d,%d,%d,%.6f,%d,%d,%.4f,%.6f,%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%.2f,%d,%d,%.6f,%d,%d,%d,%d,%d,%d\n",
			r.Config, r.Workload, r.Category, r.Prefetcher, r.StorageBits,
			r.Instructions, r.Cycles, r.IPC,
			r.L1IAccesses, r.L1IMisses, r.L1IMPKI, r.L1IHitRate,
			opt(r.Coverage), opt(r.Speedup),
			r.Prefetch.Requested, r.Prefetch.Issued, r.Prefetch.Fills,
			r.Prefetch.Timely, r.Prefetch.Late, r.Prefetch.EarlyEvicted, r.Prefetch.Inaccurate,
			r.Prefetch.LateCyclesSaved, r.Prefetch.MeanLeadCycles,
			r.Prefetch.LeadP50Cycles, r.Prefetch.LeadP99Cycles, r.Prefetch.Accuracy,
			r.Stalls.L1IMiss, r.Stalls.BTBMiss, r.Stalls.Mispredict,
			r.Stalls.FTQFull, r.Stalls.ROBFull, r.Stalls.Total)
	}
	return sb.String()
}

// WriteMetricsFile writes the export to path, as CSV when the path
// ends in .csv and indented JSON otherwise.
func WriteMetricsFile(path string, m SuiteMetrics) error {
	if strings.HasSuffix(path, ".csv") {
		return os.WriteFile(path, []byte(MetricsCSV(m)), 0o644)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteMetricsJSON(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
