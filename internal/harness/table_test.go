package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestTableString(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Header: []string{"a", "long-header"},
		Note:   "a note",
	}
	tab.AddRow("x", "1")
	tab.AddRow("longer-cell", "2")
	s := tab.String()
	for _, want := range []string{"T\n=", "long-header", "longer-cell", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
	// Columns align: the header row and data rows share widths.
	lines := strings.Split(s, "\n")
	var header, row string
	for i, l := range lines {
		if strings.HasPrefix(l, "a ") {
			header = l
			row = lines[i+2]
			break
		}
	}
	if header == "" {
		t.Fatalf("header not found in:\n%s", s)
	}
	if strings.Index(header, "long-header") != strings.Index(row, "1") {
		t.Errorf("columns misaligned:\n%q\n%q", header, row)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{Header: []string{"a", "b"}}
	tab.AddRow("plain", `with "quotes", and comma`)
	csv := tab.CSV()
	want := "a,b\nplain,\"with \"\"quotes\"\", and comma\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestTableNoTitleNoNote(t *testing.T) {
	tab := &Table{Header: []string{"h"}}
	tab.AddRow("v")
	s := tab.String()
	if strings.Contains(s, "note:") || strings.Contains(s, "=") {
		t.Errorf("unexpected decorations: %q", s)
	}
}

func TestFormattersStable(t *testing.T) {
	if f2(1.005) != "1.00" && f2(1.005) != "1.01" {
		t.Errorf("f2 = %q", f2(1.005))
	}
	if f3(0.1234) != "0.123" {
		t.Errorf("f3 = %q", f3(0.1234))
	}
	if pct(0.5) != "50.0%" {
		t.Errorf("pct = %q", pct(0.5))
	}
}

func TestConfigurationLists(t *testing.T) {
	std := StandardConfigurations()
	names := map[string]bool{}
	for _, c := range std {
		if names[c.Name] {
			t.Errorf("duplicate configuration %q", c.Name)
		}
		names[c.Name] = true
	}
	// The §IV-B lineup.
	for _, want := range []string{"no", "nextline", "sn4l", "mana-2k", "mana-4k", "mana-8k",
		"rdip", "djolt", "fnl+mma", "epi", "entangling-2k", "entangling-4k", "entangling-8k",
		"l1i-64kb", "l1i-96kb", "ideal"} {
		if !names[want] {
			t.Errorf("StandardConfigurations missing %q", want)
		}
	}
	for _, c := range PhysicalConfigurations() {
		if !c.Physical {
			t.Errorf("%s not marked physical", c.Name)
		}
	}
	abl := AblationConfigurations()
	// baseline + 5 variants x 3 sizes.
	if len(abl) != 1+5*3 {
		t.Errorf("ablation configurations = %d", len(abl))
	}
	if len(CompactConfigurations()) >= len(std) {
		t.Error("compact list should be smaller than standard")
	}
}

func TestDefaultAndQuickOptions(t *testing.T) {
	d, q := DefaultOptions(), QuickOptions()
	if d.Warmup <= q.Warmup || d.Measure <= q.Measure {
		t.Error("QuickOptions should be strictly smaller than DefaultOptions")
	}
	// Zero defers the worker count to the sweep, which runs
	// GOMAXPROCS workers (TestParallelismZeroUsesGOMAXPROCS).
	if d.Parallelism != 0 || q.Parallelism != 0 {
		t.Error("parallelism must default to the sweep's GOMAXPROCS")
	}
}

func TestTableJSON(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a"}, Note: "n"}
	tab.AddRow(`va"l`)
	var decoded struct {
		Title  string     `json:"title"`
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
		Note   string     `json:"note"`
	}
	if err := json.Unmarshal([]byte(tab.JSON()), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Title != "T" || len(decoded.Rows) != 1 || decoded.Rows[0][0] != `va"l` || decoded.Note != "n" {
		t.Errorf("decoded: %+v", decoded)
	}
}
