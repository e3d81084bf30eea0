package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"entangling/internal/stats"
)

// Table is a rendered experiment result: the textual equivalent of one
// of the paper's figures or tables.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// Note carries caveats (e.g. suite size) into the rendering.
	Note string
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
		sb.WriteString(strings.Repeat("=", len(t.Title)) + "\n")
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&sb, "%-*s", widths[i], c)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", max(0, total-2)) + "\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		sb.WriteString("note: " + t.Note + "\n")
	}
	return sb.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var sb strings.Builder
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(esc(c))
		}
		sb.WriteByte('\n')
	}
	row(t.Header)
	for _, r := range t.Rows {
		row(r)
	}
	return sb.String()
}

// f2, f3, pct format numeric cells consistently across figures.
func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }

// QualityTable renders the per-configuration prefetch-quality columns
// of the lifecycle layer: beyond coverage/accuracy, the breakdown the
// paper's timeliness argument rests on (how many prefetches were fully
// timely, how many a demand caught in flight and how much latency
// those still hid, and how many were early or outright wrong), plus
// the share of attributed stall cycles the L1I is responsible for.
func QualityTable(s *SuiteResults) *Table {
	t := &Table{
		Title: "Prefetch quality: lifecycle breakdown and stall attribution",
		Header: []string{"configuration", "speedup", "coverage", "accuracy",
			"timely", "late", "early", "inaccurate", "saved/late", "L1I stall share"},
		Note: "timely/late/early/inaccurate are fractions of prefetch fills; saved/late is mean cycles a late prefetch still hid",
	}
	for _, cfg := range s.ConfigOrder {
		if cfg == "no" {
			continue
		}
		var lc stats.PrefetchLifecycle
		var fills uint64
		for _, wl := range s.WorkloadOrder {
			if r, ok := s.Runs[cfg][wl]; ok {
				l := r.R.Lifecycle
				lc.Timely += l.Timely
				lc.Late += l.Late
				lc.EvictedUnused += l.EvictedUnused
				lc.EarlyEvicted += l.EarlyEvicted
				lc.LateCyclesSaved += l.LateCyclesSaved
				fills += r.R.L1I.PrefetchFills
			}
		}
		frac := func(n uint64) string {
			return pct(stats.Ratio(float64(n), float64(fills)))
		}
		t.AddRow(cfg,
			fmt.Sprintf("%+.2f%%", (s.GeomeanSpeedup(cfg)-1)*100),
			pct(stats.Mean(stats.FilterFinite(s.Coverage(cfg)))),
			pct(stats.Mean(stats.FilterFinite(s.Accuracy(cfg)))),
			frac(lc.Timely), frac(lc.Late), frac(lc.EarlyEvicted), frac(lc.Inaccurate()),
			f2(lc.MeanSaved()),
			pct(stats.Mean(stats.FilterFinite(s.L1IStallShares(cfg)))))
	}
	return t
}

// JSON renders the table as a JSON object with title, header, rows and
// note, for downstream tooling.
func (t *Table) JSON() string {
	obj := struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Note   string     `json:"note,omitempty"`
	}{t.Title, t.Header, t.Rows, t.Note}
	b, err := json.MarshalIndent(obj, "", "  ")
	if err != nil {
		// A slice-of-strings structure cannot fail to marshal; keep the
		// signature ergonomic.
		return "{}"
	}
	return string(b)
}
