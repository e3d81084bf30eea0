package harness

import (
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
	t := &Table{
		Title:  "Extension (§III-C3 future work): split size/pair structures",
		Header: []string{"configuration", "storage (KB)", "geomean speedup"},
		Note:   "split = block sizes in a dedicated table, entangled pairs in a halved table",
	}
	for _, cfg := range s.ConfigOrder {
		if cfg == "no" {
			continue
		}
		t.AddRow(cfg, f2(s.StorageKB(cfg)), fmt.Sprintf("%+.2f%%", (s.GeomeanSpeedup(cfg)-1)*100))
	}
	return t
}

// ExtContextTable renders the rejected context variant from a sweep
// over ContextConfigurations.
func ExtContextTable(s *SuiteResults) *Table {
	t := &Table{
		Title:  "Extension (§III-B1 rejected variant): context-replicated sources",
		Header: []string{"configuration", "geomean speedup"},
		Note:   "the paper reports this variant overloads the Entangled table and loses performance",
	}
	for _, cfg := range s.ConfigOrder {
		if cfg == "no" {
			continue
		}
		t.AddRow(cfg, fmt.Sprintf("%+.2f%%", (s.GeomeanSpeedup(cfg)-1)*100))
	}
	return t
}

// ExtPQSweep runs the prefetch-queue sensitivity study on one srv
// workload with the entangling-4k configuration.
func ExtPQSweep(warmup, measure uint64) (*Table, error) {
	p := workload.Preset(workload.Srv)
	p.Seed = 1
	p.Name = "srv-pq"
	prog, err := workload.BuildProgram(p)
	if err != nil {
		return nil, err
	}
	pf, err := prefetch.Lookup("entangling-4k")
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
		m := cpu.New(cfg)
		r := m.RunWindows(workload.NewWalker(prog), warmup, measure)
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
	t := &Table{
		Title:  "Extension (§III-C1): prefetch-on-retire trigger",
		Header: []string{"configuration", "geomean speedup"},
		Note:   "retire-triggered prefetches can never be wrong-path; the delay costs timeliness",
	}
	for _, cfg := range s.ConfigOrder {
		if cfg == "no" {
			continue
		}
		t.AddRow(cfg, fmt.Sprintf("%+.2f%%", (s.GeomeanSpeedup(cfg)-1)*100))
	}
	return t
}
