package harness

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"entangling/internal/workload"
)

// TestFig02ResumesFromCheckpoint: Figure 2 is an ordinary sweep, so a
// second run over the same checkpoint store with Resume restores every
// cell, starts none, and renders the identical table.
func TestFig02ResumesFromCheckpoint(t *testing.T) {
	specs := workload.CVPSuite(1)
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	counts := map[CellEventType]int{}
	opt := metamorphicOptions()
	opt.Checkpoint = store
	opt.Progress = func(ev CellEvent) {
		mu.Lock()
		counts[ev.Type]++
		mu.Unlock()
	}

	first, err := Fig02(context.Background(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	cells := 10 * len(specs)
	if counts[CellStarted] != cells || counts[CellRestored] != 0 {
		t.Fatalf("first run: %v, want %d started", counts, cells)
	}
	if n, err := store.Count(); err != nil || n != cells {
		t.Fatalf("store holds %d records (%v), want %d", n, err, cells)
	}

	counts = map[CellEventType]int{}
	opt.Resume = true
	second, err := Fig02(context.Background(), specs, opt)
	if err != nil {
		t.Fatal(err)
	}
	if counts[CellRestored] != cells || counts[CellStarted] != 0 {
		t.Errorf("resumed run: %v, want %d restored and none started", counts, cells)
	}
	if first.CSV() != second.CSV() {
		t.Errorf("resumed table differs:\n%s\nvs\n%s", second.CSV(), first.CSV())
	}
}

// TestFig02BuildsEachTraceOnce: the ten look-ahead distances share one
// trace per workload.
func TestFig02BuildsEachTraceOnce(t *testing.T) {
	specs := workload.CVPSuite(1)
	opt := metamorphicOptions()
	opt.Traces = workload.NewTraceCache()
	if _, err := Fig02(context.Background(), specs, opt); err != nil {
		t.Fatal(err)
	}
	if builds, _, resident := opt.Traces.CacheStats(); builds != uint64(len(specs)) || resident != 0 {
		t.Errorf("builds=%d resident=%d, want %d and 0", builds, resident, len(specs))
	}
}

// TestOracleResultRoundTrips: an oracle cell's distance histogram
// survives the checkpoint codec, and a cell of any other prefetcher
// encodes no Oracle key at all.
func TestOracleResultRoundTrips(t *testing.T) {
	spec := workload.CVPSuite(1)[3]
	opt := metamorphicOptions()
	for _, cfg := range []Configuration{{Name: "oracle", Prefetcher: "oracle"}, Baseline} {
		res, cerr := RunCell(context.Background(), cfg, spec, opt)
		if cerr != nil {
			t.Fatal(cerr)
		}
		isOracle := cfg.Prefetcher == "oracle"
		if isOracle != (res.Oracle != nil) {
			t.Fatalf("%s: Oracle = %v", cfg.Name, res.Oracle)
		}
		if isOracle && res.Oracle.Total() == 0 {
			t.Fatalf("%s: the oracle classified no misses", cfg.Name)
		}
		b, err := EncodeCellRecord(CellRecord{
			SchemaVersion: CheckpointSchemaVersion,
			Fingerprint:   CellFingerprint(cfg, spec, opt.Warmup, opt.Measure),
			Config:        cfg.Name,
			Workload:      spec.Name,
			Result:        res,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := bytes.Contains(b, []byte(`"Oracle"`)); got != isOracle {
			t.Errorf("%s: record contains an Oracle key: %v", cfg.Name, got)
		}
		rec, err := DecodeCellRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.Result, res) {
			t.Errorf("%s: result changed in the codec:\ngot  %+v\nwant %+v", cfg.Name, rec.Result, res)
		}
	}
}
