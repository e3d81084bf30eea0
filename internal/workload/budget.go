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

// Budget caps the resources one workload trace may consume. The zero
// value means "no limit" for every field; servers use DefaultBudget.
type Budget struct {
	// MaxTraceInstrs caps the materialized stream length
	// (warmup+measure): the dominant allocation, held packed at about
	// 5 bytes per instruction (one op byte, plus an 8-byte word per
	// branch target, data address and escape; 33 bytes at most).
	MaxTraceInstrs uint64
	// MaxStaticInstrs caps the synthesized program size
	// (Functions x MeanBlocks x MeanBlockInstrs).
	MaxStaticInstrs uint64
	// MaxDataFootprint caps the modeled heap region.
	MaxDataFootprint uint64
	// MaxCallDepth caps the walker's simulated call stack.
	MaxCallDepth int
}

// DefaultBudget returns limits comfortably above every curated suite
// and figure windows (paperfigs runs 3M-instruction cells over
// programs of ~10^5 static instructions) while keeping a single
// request's packed trace near 80 MB (about 530 MB at most).
func DefaultBudget() Budget {
	return Budget{
		MaxTraceInstrs:   16_000_000,
		MaxStaticInstrs:  2_000_000,
		MaxDataFootprint: 1 << 28, // 256 MiB
		MaxCallDepth:     1 << 12,
	}
}

// Check validates spec's parameters and verifies that materializing
// its first traceLen instructions stays inside the budget. It returns
// the first violation, or nil.
func (b Budget) Check(spec Spec, traceLen uint64) error {
	p := spec.Params
	if err := p.Validate(); err != nil {
		return err
	}
	if b.MaxTraceInstrs > 0 && traceLen > b.MaxTraceInstrs {
		return fmt.Errorf("workload %s: trace of %d instructions exceeds budget %d",
			spec.Name, traceLen, b.MaxTraceInstrs)
	}
	if spec.TraceBacked() {
		// Ingested traces have no program shape; the stream-length cap
		// above (and the decode-time Limits at ingest) are the budget.
		return nil
	}
	static := uint64(p.Functions) * uint64(p.MeanBlocks) * uint64(p.MeanBlockInstrs)
	if b.MaxStaticInstrs > 0 && static > b.MaxStaticInstrs {
		return fmt.Errorf("workload %s: ~%d static instructions exceed budget %d",
			spec.Name, static, b.MaxStaticInstrs)
	}
	if b.MaxDataFootprint > 0 && p.DataFootprint > b.MaxDataFootprint {
		return fmt.Errorf("workload %s: data footprint %d bytes exceeds budget %d",
			spec.Name, p.DataFootprint, b.MaxDataFootprint)
	}
	if b.MaxCallDepth > 0 && p.MaxCallDepth > b.MaxCallDepth {
		return fmt.Errorf("workload %s: call depth %d exceeds budget %d",
			spec.Name, p.MaxCallDepth, b.MaxCallDepth)
	}
	return nil
}

// DecodeLimits translates the budget into the streaming-decode caps a
// trace ingest must run under: the instruction cap is the budget's
// stream-length cap, the byte cap is supplied by the transport (which
// knows its own body limit). This is the satellite fix for budgets
// that used to run only after full materialization — the decoder now
// enforces them record by record.
func (b Budget) DecodeLimits(maxBytes uint64) trace.Limits {
	return trace.Limits{MaxInstrs: b.MaxTraceInstrs, MaxBytes: maxBytes}
}
