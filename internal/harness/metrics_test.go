package harness

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSuiteMetricsExport(t *testing.T) {
	specs, cfgs, s := tinySuite(t)
	m := s.Metrics()

	if m.SchemaVersion != MetricsSchemaVersion {
		t.Fatalf("schema version %d", m.SchemaVersion)
	}
	if want := len(specs) * len(cfgs); len(m.Runs) != want {
		t.Fatalf("exported %d runs, want %d", len(m.Runs), want)
	}

	for _, r := range m.Runs {
		// Acceptance invariant: the stall buckets always sum to total.
		sum := r.Stalls.L1IMiss + r.Stalls.BTBMiss + r.Stalls.Mispredict +
			r.Stalls.FTQFull + r.Stalls.ROBFull
		if sum != r.Stalls.Total {
			t.Errorf("%s/%s: stall buckets sum %d != total %d", r.Config, r.Workload, sum, r.Stalls.Total)
		}
		if r.Instructions == 0 || r.Cycles == 0 || r.IPC <= 0 {
			t.Errorf("%s/%s: empty run exported", r.Config, r.Workload)
		}
		if r.Config == "no" {
			if r.Speedup != nil || r.Coverage != nil {
				t.Errorf("baseline row carries speedup/coverage")
			}
			if r.Prefetch.Issued != 0 {
				t.Errorf("baseline issued %d prefetches", r.Prefetch.Issued)
			}
		} else if r.Config != "ideal" {
			// Speedup is always computable; coverage needs the baseline
			// to have missed at all (fp can have zero misses in a tiny
			// window).
			if r.Speedup == nil {
				t.Errorf("%s/%s: missing speedup vs baseline", r.Config, r.Workload)
			}
			if r.Coverage == nil && r.L1IMisses > 0 {
				t.Errorf("%s/%s: missing coverage despite %d misses", r.Config, r.Workload, r.L1IMisses)
			}
		}
		// Lifecycle fates never exceed the fills that created them.
		if r.Prefetch.Timely+r.Prefetch.Late > r.Prefetch.Issued && r.Prefetch.Issued > 0 {
			t.Errorf("%s/%s: timely+late %d exceeds issued %d",
				r.Config, r.Workload, r.Prefetch.Timely+r.Prefetch.Late, r.Prefetch.Issued)
		}
	}

	// Round-trip through JSON.
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, m); err != nil {
		t.Fatal(err)
	}
	var back SuiteMetrics
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != len(m.Runs) || back.SchemaVersion != m.SchemaVersion {
		t.Fatal("JSON round-trip lost runs")
	}
	if back.Runs[0].Stalls.Total != m.Runs[0].Stalls.Total {
		t.Fatal("JSON round-trip lost stall totals")
	}

	// Marshalling twice is byte-identical (deterministic ordering).
	var buf2 bytes.Buffer
	if err := WriteMetricsJSON(&buf2, s.Metrics()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("repeated export not byte-identical")
	}
}

func TestMetricsCSV(t *testing.T) {
	_, _, s := tinySuite(t)
	csv := MetricsCSV(s.Metrics())
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(s.Metrics().Runs) {
		t.Fatalf("CSV has %d lines, want header+%d", len(lines), len(s.Metrics().Runs))
	}
	cols := strings.Count(lines[0], ",")
	for i, l := range lines[1:] {
		if strings.Count(l, ",") != cols {
			t.Fatalf("row %d has ragged columns: %q", i, l)
		}
	}
	for _, want := range []string{"config", "timely", "late_cycles_saved", "stall_l1i_miss", "stall_total"} {
		if !strings.Contains(lines[0], want) {
			t.Errorf("CSV header missing %q: %s", want, lines[0])
		}
	}
}

func TestWriteMetricsFile(t *testing.T) {
	_, _, s := tinySuite(t)
	dir := t.TempDir()

	jsonPath := filepath.Join(dir, "out.json")
	if err := WriteMetricsFile(jsonPath, s.Metrics()); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var m SuiteMetrics
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatalf("JSON file does not parse: %v", err)
	}

	csvPath := filepath.Join(dir, "out.csv")
	if err := WriteMetricsFile(csvPath, s.Metrics()); err != nil {
		t.Fatal(err)
	}
	c, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(c), "config,") {
		t.Fatalf("CSV file does not start with header: %.40q", string(c))
	}
}

func TestQualityTable(t *testing.T) {
	_, _, s := tinySuite(t)
	tab := QualityTable(s)
	if tab == nil || len(tab.Rows) == 0 {
		t.Fatal("empty quality table")
	}
	out := tab.String()
	for _, want := range []string{"timely", "late", "inaccurate", "L1I stall share"} {
		if !strings.Contains(out, want) {
			t.Errorf("quality table missing column %q", want)
		}
	}
	// The baseline ("no") row is excluded: it has no prefetches to rate.
	for _, row := range tab.Rows {
		if row[0] == "no" {
			t.Error("baseline row present in quality table")
		}
	}
}

func TestL1IStallShares(t *testing.T) {
	_, _, s := tinySuite(t)
	shares := s.L1IStallShares("no")
	if len(shares) == 0 {
		t.Fatal("no stall shares for baseline")
	}
	for i, v := range shares {
		if v < 0 || v > 1 {
			t.Errorf("stall share[%d] = %v out of [0,1]", i, v)
		}
	}
}
