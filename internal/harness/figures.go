package harness

import (
	"context"
	"fmt"

	"entangling/internal/core"
	"entangling/internal/energy"
	"entangling/internal/stats"
	"entangling/internal/workload"
)

// Fig01 reproduces Figure 1: the fraction of L1I misses a fixed
// look-ahead distance (in taken-branch discontinuities) would serve
// timely, measured with the oracle on the no-prefetch baseline: one
// sweep of the "oracle" prefetcher, which issues nothing, through r.
func Fig01(ctx context.Context, r *Resolver, specs []workload.Spec, opt Options) (*Table, error) {
	cfg := Configuration{Name: "oracle", Prefetcher: "oracle"}
	s, err := r.RunSuite(ctx, specs, []Configuration{cfg}, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 1: fraction of timely prefetches vs fixed look-ahead distance",
		Header: []string{"workload"},
		Note:   "cumulative fraction of misses served timely at each distance; oracle on the no-prefetch baseline",
	}
	for d := 1; d <= 10; d++ {
		t.Header = append(t.Header, fmt.Sprintf("d=%d", d))
	}
	t.Header = append(t.Header, ">10")

	row := func(name string, h *stats.Histogram) {
		cells := []string{name}
		for d := 1; d <= 10; d++ {
			cells = append(cells, pct(h.CumulativeFraction(d)))
		}
		t.AddRow(append(cells, pct(1-h.CumulativeFraction(10)))...)
	}
	agg := stats.NewHistogram(1, 10)
	for _, wl := range s.WorkloadOrder {
		h := s.Runs[cfg.Name][wl].Oracle
		row(wl, h)
		agg.Merge(h)
	}
	row("ALL", agg)
	return t, nil
}

// Fig02 reproduces Figure 2: prefetcher accuracy as the fixed
// look-ahead distance grows, using the Markov look-ahead-d prefetcher:
// one sweep over lookahead-1 ... lookahead-10, through r.
func Fig02(ctx context.Context, r *Resolver, specs []workload.Spec, opt Options) (*Table, error) {
	cfgs := make([]Configuration, 10)
	for d := range cfgs {
		name := fmt.Sprintf("lookahead-%d", d+1)
		cfgs[d] = Configuration{Name: name, Prefetcher: name}
	}
	s, err := r.RunSuite(ctx, specs, cfgs, opt)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 2: accuracy vs fixed look-ahead distance",
		Header: []string{"distance"},
		Note:   "per-category mean accuracy of a look-ahead-d correlation prefetcher",
	}
	cats := []workload.Category{workload.Crypto, workload.Int, workload.FP, workload.Srv}
	for _, c := range cats {
		t.Header = append(t.Header, string(c))
	}
	t.Header = append(t.Header, "all")

	for d, cfg := range cfgs {
		byCat := map[workload.Category][]float64{}
		var all []float64
		for _, wl := range s.WorkloadOrder {
			r := s.Runs[cfg.Name][wl]
			acc := r.R.L1I.Accuracy()
			byCat[r.Category] = append(byCat[r.Category], acc)
			all = append(all, acc)
		}
		row := []string{fmt.Sprintf("%d", d+1)}
		for _, c := range cats {
			row = append(row, pct(stats.Mean(byCat[c])))
		}
		row = append(row, pct(stats.Mean(all)))
		t.AddRow(row...)
	}
	return t, nil
}

// Fig06 reproduces Figure 6: geometric-mean normalized IPC vs storage
// for every configuration.
func Fig06(s *SuiteResults) *Table {
	t := &Table{
		Title:  "Figure 6: IPC vs memory requirements",
		Header: []string{"configuration", "storage (KB)", "geomean speedup"},
	}
	for _, cfg := range s.ConfigOrder {
		t.AddRow(cfg, f2(s.StorageKB(cfg)), fmt.Sprintf("%+.2f%%", (s.GeomeanSpeedup(cfg)-1)*100))
	}
	return t
}

// sCurveTable renders per-workload sorted series (the individually
// ordered curves of Figures 7-10).
func sCurveTable(title, metricName string, s *SuiteResults, series func(string) []float64, points int) *Table {
	t := &Table{
		Title:  title,
		Header: []string{"pctile"},
		Note:   "each column is sorted independently (" + metricName + "), as in the paper",
	}
	cfgs := s.ConfigOrder
	for _, c := range cfgs {
		t.Header = append(t.Header, c)
	}
	curves := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		// Series are WorkloadOrder-aligned and NaN-padded; drop the
		// undefined slots before resampling the sorted curve.
		curves[i] = stats.SCurve(stats.FilterFinite(series(c)), points)
	}
	for p := 0; p < points; p++ {
		row := []string{fmt.Sprintf("%3.0f%%", float64(p)/float64(points-1)*100)}
		for i := range cfgs {
			if p < len(curves[i]) {
				row = append(row, f3(curves[i][p]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig07 reproduces Figure 7: per-workload normalized IPC, sorted.
func Fig07(s *SuiteResults, points int) *Table {
	return sCurveTable("Figure 7: normalized IPC (sorted per configuration)", "normalized IPC",
		s, s.NormalizedIPC, points)
}

// Fig08 reproduces Figure 8: per-workload L1I miss ratio, sorted.
func Fig08(s *SuiteResults, points int) *Table {
	return sCurveTable("Figure 8: L1I miss ratio (sorted per configuration)", "miss ratio",
		s, s.MissRatios, points)
}

// Fig09 reproduces Figure 9: per-workload coverage, sorted.
func Fig09(s *SuiteResults, points int) *Table {
	return sCurveTable("Figure 9: coverage (sorted per configuration)", "coverage",
		s, s.Coverage, points)
}

// Fig10 reproduces Figure 10: per-workload accuracy, sorted.
func Fig10(s *SuiteResults, points int) *Table {
	return sCurveTable("Figure 10: accuracy (sorted per configuration)", "accuracy",
		s, s.Accuracy, points)
}

// Table04 reproduces Table IV: average per-level cache energy and the
// geometric mean of total energy normalized to the baseline.
func Table04(s *SuiteResults, model energy.Model) *Table {
	t := &Table{
		Title:  "Table IV: average energy per cache level (nJ) and normalized geomean",
		Header: []string{"configuration", "L1I", "L1D", "L2C", "LLC", "geomean (norm.)"},
	}
	// Per-workload totals for the baseline, for normalization.
	baseTotals := map[string]float64{}
	for wl, r := range s.Runs["no"] {
		b := model.Compute(&r.R)
		baseTotals[wl] = b.Total()
	}
	for _, cfg := range s.ConfigOrder {
		var l1i, l1d, l2, llc stats.RunningMean
		var norms []float64
		for wl, r := range s.Runs[cfg] {
			b := model.Compute(&r.R)
			l1i.Add(b.L1I)
			l1d.Add(b.L1D)
			l2.Add(b.L2)
			llc.Add(b.LLC)
			if bt := baseTotals[wl]; bt > 0 {
				norms = append(norms, b.Total()/bt)
			}
		}
		norm := "-"
		if len(norms) > 0 {
			norm = fmt.Sprintf("%.4f", stats.Geomean(norms))
		}
		t.AddRow(cfg,
			fmt.Sprintf("%.0f", l1i.Mean()),
			fmt.Sprintf("%.0f", l1d.Mean()),
			fmt.Sprintf("%.0f", l2.Mean()),
			fmt.Sprintf("%.0f", llc.Mean()),
			norm)
	}
	return t
}

// Fig11 reproduces Figure 11: the contribution breakdown BB / BBEnt /
// BBEntBB / Ent / BBEntBB-Merge for each table size.
func Fig11(s *SuiteResults) *Table {
	t := &Table{
		Title:  "Figure 11: breakdown of the contributions to performance (geomean speedup)",
		Header: []string{"variant", "2K", "4K", "8K"},
	}
	variants := []struct{ label, suffix string }{
		{"BB", "-BB"},
		{"Ent", "-Ent"},
		{"BBEnt", "-BBEnt"},
		{"BBEntBB", "-BBEntBB"},
		{"BBEntBB-Merge", ""},
	}
	for _, v := range variants {
		row := []string{v.label}
		for _, size := range []string{"2k", "4k", "8k"} {
			cfg := "entangling-" + size + v.suffix
			row = append(row, fmt.Sprintf("%+.2f%%", (s.GeomeanSpeedup(cfg)-1)*100))
		}
		t.AddRow(row...)
	}
	return t
}

// entMetric is a helper extracting an Entangling-internal ratio.
func entMetric(f func(*core.Stats) (float64, bool)) func(RunResult) (float64, bool) {
	return func(r RunResult) (float64, bool) {
		if r.Ent == nil {
			return 0, false
		}
		return f(r.Ent)
	}
}

// Fig12 reproduces Figure 12: the distribution of destination storage
// formats (significant-bit buckets) per workload category.
func Fig12(s *SuiteResults, cfg string) *Table {
	buckets := []int{8, 10, 13, 18, 28, 58}
	t := &Table{
		Title:  "Figure 12: destination compression format distribution (" + cfg + ")",
		Header: []string{"category"},
		Note:   "fraction of destination inserts stored with each significant-bit format",
	}
	for _, b := range buckets {
		t.Header = append(t.Header, fmt.Sprintf("%db", b))
	}
	for _, cat := range s.Categories() {
		sums := map[int]float64{}
		var total float64
		for _, wl := range s.WorkloadOrder {
			r, ok := s.Runs[cfg][wl]
			if !ok || r.Ent == nil || r.Category != cat {
				continue
			}
			for b, n := range r.Ent.InsertsBySigBits {
				sums[b] += float64(n)
				total += float64(n)
			}
		}
		row := []string{string(cat)}
		for _, b := range buckets {
			if total > 0 {
				row = append(row, pct(sums[b]/total))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	return t
}

// Fig13 reproduces Figure 13: average number of entangled destinations
// found on an Entangled-table hit, per category.
func Fig13(s *SuiteResults, cfgs []string) *Table {
	return entCategoryTable(s, cfgs,
		"Figure 13: average number of entangled destinations",
		func(e *core.Stats) (float64, bool) {
			if e.TableHits == 0 {
				return 0, false
			}
			return float64(e.DstFound) / float64(e.TableHits), true
		})
}

// Fig14 reproduces Figure 14: average basic-block size (lines
// prefetched from the current block per hit), per category.
func Fig14(s *SuiteResults, cfgs []string) *Table {
	return entCategoryTable(s, cfgs,
		"Figure 14: average basic block size (current block)",
		func(e *core.Stats) (float64, bool) {
			if e.TableHits == 0 {
				return 0, false
			}
			return float64(e.BBLinesPrefetched) / float64(e.TableHits), true
		})
}

// Fig15 reproduces Figure 15: average basic-block size of entangled
// destinations, per category.
func Fig15(s *SuiteResults, cfgs []string) *Table {
	return entCategoryTable(s, cfgs,
		"Figure 15: average basic block size of entangled destinations",
		func(e *core.Stats) (float64, bool) {
			if e.DstFound == 0 {
				return 0, false
			}
			return float64(e.DstBBLines) / float64(e.DstFound), true
		})
}

func entCategoryTable(s *SuiteResults, cfgs []string, title string, metric func(*core.Stats) (float64, bool)) *Table {
	t := &Table{Title: title, Header: []string{"category"}}
	for _, c := range cfgs {
		t.Header = append(t.Header, c, c+" (sd)")
	}
	for _, cat := range s.Categories() {
		row := []string{string(cat)}
		for _, cfg := range cfgs {
			means, devs := s.CategoryMean(cfg, entMetric(metric))
			row = append(row, f2(means[cat]), f2(devs[cat]))
		}
		t.AddRow(row...)
	}
	return t
}

// PhysicalTable reproduces §IV-E: geomean speedup of the Entangling
// configurations trained on physical addresses.
func PhysicalTable(s *SuiteResults) *Table {
	return speedupTable(s, "Section IV-E: physical-address training (geomean speedup vs physical baseline)", "", false)
}

// Fig16 reproduces Figure 16: normalized IPC on the CloudSuite-like
// workloads.
func Fig16(s *SuiteResults) *Table {
	t := &Table{
		Title:  "Figure 16: normalized IPC for CloudSuite applications",
		Header: []string{"configuration"},
	}
	for _, wl := range s.WorkloadOrder {
		t.Header = append(t.Header, wl)
	}
	for _, cfg := range s.ConfigOrder {
		if cfg == "no" {
			continue
		}
		row := []string{cfg}
		for _, wl := range s.WorkloadOrder {
			r, ok := s.Runs[cfg][wl]
			b, bok := s.baselineFor(wl)
			if !ok || !bok || b.R.IPC == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, f3(r.R.IPC/b.R.IPC))
		}
		t.AddRow(row...)
	}
	return t
}

// Headline summarizes the paper's abstract-level claims from the main
// sweep: speedups at each budget, gap to the ideal L1I, coverage,
// accuracy and the achieved L1I hit rate.
func Headline(s *SuiteResults) *Table {
	t := &Table{
		Title:  "Headline metrics (paper: 2K +7.5%, 4K +9.6%, 8K +10.1%, ideal +11.8%; coverage 88.2%, accuracy 71.5%, hit rate 97.6%)",
		Header: []string{"configuration", "geomean speedup", "% of ideal gap", "mean coverage", "mean accuracy", "mean L1I hit rate"},
	}
	ideal := s.GeomeanSpeedup("ideal")
	for _, cfg := range []string{"entangling-2k", "entangling-4k", "entangling-8k", "epi", "ideal"} {
		if _, ok := s.Runs[cfg]; !ok {
			continue
		}
		sp := s.GeomeanSpeedup(cfg)
		gap := "-"
		if ideal > 1 && cfg != "ideal" {
			gap = fmt.Sprintf("%.0f%%", (sp-1)/(ideal-1)*100)
		}
		var hit stats.RunningMean
		for _, wl := range s.WorkloadOrder {
			if r, ok := s.Runs[cfg][wl]; ok {
				hit.Add(r.R.L1IHitRate())
			}
		}
		t.AddRow(cfg,
			fmt.Sprintf("%+.2f%%", (sp-1)*100),
			gap,
			pct(stats.Mean(stats.FilterFinite(s.Coverage(cfg)))),
			pct(stats.Mean(stats.FilterFinite(s.Accuracy(cfg)))),
			pct(hit.Mean()))
	}
	return t
}
