package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"entangling/internal/harness"
	"entangling/internal/trace"
	"entangling/internal/workload"
)

// writeTrace writes the first n instructions of a synthetic workload
// as a trace file and returns its path.
func writeTrace(t *testing.T, n uint64) string {
	t.Helper()
	w, err := workload.CVPSuite(1)[3].New()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "srv.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tw, err := trace.NewWriter(f, true)
	if err != nil {
		t.Fatal(err)
	}
	var in trace.Instruction
	for i := uint64(0); i < n && w.Next(&in); i++ {
		if err := tw.Write(&in); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceFileRunsAsCells: a trace file is a content-addressed
// workload, so it runs through the same sweep as a synthetic one — with
// the baseline beside it, checkpointed, and resumed.
func TestTraceFileRunsAsCells(t *testing.T) {
	path := writeTrace(t, 30_000)
	spec, err := traceSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	if spec.Name != path || spec.Params.TraceSHA256 != hex.EncodeToString(sum[:]) {
		t.Fatalf("spec %s addressed %s, want %s at sha256 %x", spec.Name, spec.Params.TraceSHA256, path, sum)
	}

	store, err := harness.OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []harness.Configuration{{Name: "nextline", Prefetcher: "nextline"}, harness.Baseline}
	opt := harness.Options{Warmup: 10_000, Measure: 20_000, Checkpoint: store}
	first, err := harness.RunSuite([]workload.Spec{spec}, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r := first.Runs["nextline"][path].R; r.Instructions != 20_000 || r.PrefetcherName != "nextline" {
		t.Fatalf("nextline run: %d instructions under %q", r.Instructions, r.PrefetcherName)
	}
	if n, err := store.Count(); err != nil || n != 2 {
		t.Fatalf("checkpointed %d cells (%v), want 2", n, err)
	}

	opt.Resume = true
	second, err := harness.RunSuite([]workload.Spec{spec}, cfgs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if second.Restored != 2 {
		t.Errorf("resumed %d cells, want 2", second.Restored)
	}
	for _, c := range cfgs {
		if second.Runs[c.Name][path] != first.Runs[c.Name][path] {
			t.Errorf("%s: resumed result differs", c.Name)
		}
	}
}
