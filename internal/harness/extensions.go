package harness

import (
	"context"
	"fmt"

	"entangling/internal/cpu"
	"entangling/internal/prefetch"
	"entangling/internal/workload"
)

// This file drives the studies beyond the paper's main evaluation:
// the split size/pair structures the paper leaves as future work
// (§III-C3), the context-replication variant it reports and rejects
// (§III-B1), and the prefetch-queue sensitivity its §IV-D discussion
// predicts.

// SplitConfigurations returns unified-vs-split pairs per budget.
func SplitConfigurations() []Configuration {
	return []Configuration{
		Baseline,
		{Name: "entangling-2k", Prefetcher: "entangling-2k"},
		{Name: "entangling-2k-split", Prefetcher: "entangling-2k-split"},
		{Name: "entangling-4k", Prefetcher: "entangling-4k"},
		{Name: "entangling-4k-split", Prefetcher: "entangling-4k-split"},
		{Name: "entangling-8k", Prefetcher: "entangling-8k"},
		{Name: "entangling-8k-split", Prefetcher: "entangling-8k-split"},
	}
}

// ContextConfigurations returns the plain-vs-context comparison.
func ContextConfigurations() []Configuration {
	return []Configuration{
		Baseline,
		{Name: "entangling-4k", Prefetcher: "entangling-4k"},
		{Name: "entangling-4k-ctx", Prefetcher: "entangling-4k-ctx"},
	}
}

// ExtSplitTable renders the future-work split study from a sweep over
// SplitConfigurations.
func ExtSplitTable(s *SuiteResults) *Table {
	return speedupTable(s, "Extension (§III-C3 future work): split size/pair structures",
		"split = block sizes in a dedicated table, entangled pairs in a halved table", true)
}

// ExtContextTable renders the rejected context variant from a sweep
// over ContextConfigurations.
func ExtContextTable(s *SuiteResults) *Table {
	return speedupTable(s, "Extension (§III-B1 rejected variant): context-replicated sources",
		"the paper reports this variant overloads the Entangled table and loses performance", false)
}

// speedupTable renders one row per configuration but the baseline:
// its storage when storage is set, then its geomean speedup.
func speedupTable(s *SuiteResults, title, note string, storage bool) *Table {
	t := &Table{Title: title, Header: []string{"configuration", "geomean speedup"}, Note: note}
	if storage {
		t.Header = []string{"configuration", "storage (KB)", "geomean speedup"}
	}
	for _, cfg := range s.ConfigOrder {
		if cfg == "no" {
			continue
		}
		row := []string{cfg}
		if storage {
			row = append(row, f2(s.StorageKB(cfg)))
		}
		t.AddRow(append(row, fmt.Sprintf("%+.2f%%", (s.GeomeanSpeedup(cfg)-1)*100))...)
	}
	return t
}

// ExtPQSweep runs the prefetch-queue sensitivity study on one srv
// workload with the entangling-4k configuration: the trace is built
// once, with its presolved outcomes, and replayed for each queue size.
// Canceling ctx stops it, before the trace is built or mid-run, with
// ErrCellCanceled.
func ExtPQSweep(ctx context.Context, warmup, measure uint64) (*Table, error) {
	p := workload.Preset(workload.Srv)
	p.Seed = 1
	p.Name = "srv-pq"
	pf, err := prefetch.Lookup("entangling-4k")
	if err != nil {
		return nil, err
	}
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	tr, err := workload.NewTraceCache().Get(workload.Spec{Name: p.Name, Params: p}, warmup+measure)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Extension (§IV-D): prefetch-queue size sensitivity (srv, entangling-4k)",
		Header: []string{"PQ entries", "IPC", "PQ overflow drops", "prefetches issued"},
		Note:   "the paper predicts fewer discarded prefetches with a larger PQ",
	}
	for _, pq := range []int{8, 16, 32, 64, 128} {
		cfg := cpu.DefaultConfig()
		cfg.L1I.PQSize = pq
		cfg.Prefetcher = pf
		_, r, err := runMachine(ctx, cfg, tr, warmup, measure)
		if err != nil {
			if cerr := canceled(ctx); cerr != nil {
				return nil, cerr
			}
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", pq), f3(r.IPC),
			fmt.Sprintf("%d", r.L1I.PrefetchDroppedPQ), fmt.Sprintf("%d", r.L1I.PrefetchIssued))
	}
	return t, nil
}

// RetireConfigurations returns the prefetch-on-retire comparison
// (§III-C1): triggering at retire avoids wrong-path prefetches at a
// timeliness cost. The simulator (like the paper's ChampSim) has no
// wrong path, so only the cost side shows.
func RetireConfigurations() []Configuration {
	return []Configuration{
		Baseline,
		{Name: "entangling-4k", Prefetcher: "entangling-4k"},
		{Name: "entangling-4k-retire", Prefetcher: "entangling-4k-retire"},
	}
}

// ExtRetireTable renders the prefetch-on-retire study.
func ExtRetireTable(s *SuiteResults) *Table {
	return speedupTable(s, "Extension (§III-C1): prefetch-on-retire trigger",
		"retire-triggered prefetches can never be wrong-path; the delay costs timeliness", false)
}
