package workload

import (
	"fmt"

	"entangling/internal/trace"
)

// This file bounds what a workload request may cost. The batch CLIs
// only run curated suites, but the job server (internal/server)
// materializes traces for payloads that arrive over the network: a
// hostile or fat-fingered request must be rejected by arithmetic on
// its parameters, not discovered by the OOM killer after the trace
// generator has already committed gigabytes.

// The budget one workload trace may consume. The limits sit
// comfortably above every curated suite and figure window (paperfigs
// runs 3M-instruction cells over programs of ~10^5 static
// instructions) while keeping a single request's packed trace near
// 80 MB (about 530 MB at most).
const (
	// MaxTraceInstrs caps the materialized stream length
	// (warmup+measure): the dominant allocation, held packed at about
	// 5 bytes per instruction (one op byte, plus an 8-byte word per
	// branch target, data address and escape; 33 bytes at most).
	MaxTraceInstrs = 16_000_000
	// MaxStaticInstrs caps the synthesized program size
	// (Functions x MeanBlocks x MeanBlockInstrs).
	MaxStaticInstrs = 2_000_000
	// MaxDataFootprint caps the modeled heap region (256 MiB).
	MaxDataFootprint = 1 << 28
	// MaxCallDepth caps the walker's simulated call stack.
	MaxCallDepth = 1 << 12
)

// CheckBudget validates spec's parameters and verifies that
// materializing its first traceLen instructions stays inside the
// budget. It returns the first violation, or nil.
func CheckBudget(spec Spec, traceLen uint64) error {
	p := spec.Params
	if err := p.Validate(); err != nil {
		return err
	}
	if traceLen > MaxTraceInstrs {
		return fmt.Errorf("workload %s: trace of %d instructions exceeds budget %d",
			spec.Name, traceLen, MaxTraceInstrs)
	}
	if spec.TraceBacked() {
		// Ingested traces have no program shape; the stream-length cap
		// above (and the decode-time Limits at ingest) are the budget.
		return nil
	}
	static := uint64(p.Functions) * uint64(p.MeanBlocks) * uint64(p.MeanBlockInstrs)
	if static > MaxStaticInstrs {
		return fmt.Errorf("workload %s: ~%d static instructions exceed budget %d",
			spec.Name, static, MaxStaticInstrs)
	}
	if p.DataFootprint > MaxDataFootprint {
		return fmt.Errorf("workload %s: data footprint %d bytes exceeds budget %d",
			spec.Name, p.DataFootprint, MaxDataFootprint)
	}
	if p.MaxCallDepth > MaxCallDepth {
		return fmt.Errorf("workload %s: call depth %d exceeds budget %d",
			spec.Name, p.MaxCallDepth, MaxCallDepth)
	}
	return nil
}

// DecodeLimits returns the streaming-decode caps a trace ingest runs
// under: the instruction cap is the budget's stream-length cap, the
// byte cap is supplied by the transport (which knows its own body
// limit). The decoder enforces them record by record, before the
// trace is ever materialized.
func DecodeLimits(maxBytes uint64) trace.Limits {
	return trace.Limits{MaxInstrs: MaxTraceInstrs, MaxBytes: maxBytes}
}
