package harness

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"entangling/internal/faultinject"
	"entangling/internal/workload"
)

// sampleRecord builds a realistic record for codec tests.
func sampleRecord() CellRecord {
	r := RunResult{Config: "entangling-2k", Workload: "srv-00", Category: workload.Srv}
	r.R.PrefetcherName = "entangling-2k"
	r.R.StorageBits = 171008
	r.R.Instructions = 100_000
	r.R.Cycles = 43_217
	r.R.IPC = 2.3139033274175323 // full-precision float must round-trip
	r.R.L1I.Accesses = 31_222
	r.R.L1I.Hits = 30_000
	r.R.L1I.Misses = 1222
	r.R.Lifecycle.Timely = 812
	r.R.Stalls.L1IMiss = 5123
	spec := workload.CVPSuite(1)[3]
	cfg := Configuration{Name: "entangling-2k", Prefetcher: "entangling-2k"}
	return CellRecord{
		SchemaVersion: CheckpointSchemaVersion,
		Fingerprint:   CellFingerprint(cfg, spec, 150_000, 100_000),
		Config:        "entangling-2k",
		Workload:      "srv-00",
		Result:        r,
	}
}

func TestCellRecordRoundTrip(t *testing.T) {
	rec := sampleRecord()
	b, err := EncodeCellRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCellRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("record changed in round trip:\ngot  %+v\nwant %+v", got, rec)
	}
}

func TestCellFingerprintSensitivity(t *testing.T) {
	specs := workload.CVPSuite(1)
	cfg := Configuration{Name: "entangling-2k", Prefetcher: "entangling-2k"}
	base := CellFingerprint(cfg, specs[0], 1000, 500)

	if got := CellFingerprint(cfg, specs[0], 1000, 500); got != base {
		t.Error("fingerprint not deterministic")
	}
	changed := map[string]string{
		"workload": CellFingerprint(cfg, specs[1], 1000, 500),
		"warmup":   CellFingerprint(cfg, specs[0], 2000, 500),
		"measure":  CellFingerprint(cfg, specs[0], 1000, 600),
		"config":   CellFingerprint(Configuration{Name: "entangling-2k", Prefetcher: "entangling-2k", Physical: true}, specs[0], 1000, 500),
	}
	for what, fp := range changed {
		if fp == base {
			t.Errorf("changing the %s did not change the fingerprint", what)
		}
	}
	// A config differing only in non-Name fields must still differ: the
	// fingerprint keys the full configuration, not its label.
	alias := Configuration{Name: "entangling-2k", Prefetcher: "entangling-4k"}
	if CellFingerprint(alias, specs[0], 1000, 500) == base {
		t.Error("fingerprint keyed by name only")
	}
}

func TestCheckpointStoreSaveLoad(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	if _, ok, err := store.Load(rec.Fingerprint); ok || err != nil {
		t.Fatalf("empty store Load = ok %v, err %v", ok, err)
	}
	if err := store.Save(rec); err != nil {
		t.Fatal(err)
	}
	got, ok, err := store.Load(rec.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("Load after Save: ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("loaded record differs:\ngot  %+v\nwant %+v", got, rec)
	}
	if n, err := store.Count(); err != nil || n != 1 {
		t.Errorf("Count = %d, %v", n, err)
	}
	// No temp droppings left behind.
	if tmps, _ := filepath.Glob(filepath.Join(store.Dir(), "*.tmp")); len(tmps) != 0 {
		t.Errorf("stale temp files: %v", tmps)
	}
}

// TestCheckpointStoreSaveErrorLeavesNoTemp: a Save that fails at any
// stage — encoding, writing, or committing the rename — must clean up
// after itself; the store directory never accumulates .tmp files that
// a later crash-recovery scan would have to reason about.
func TestCheckpointStoreSaveErrorLeavesNoTemp(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	noTemps := func(when string) {
		t.Helper()
		if tmps, _ := filepath.Glob(filepath.Join(store.Dir(), "*.tmp")); len(tmps) != 0 {
			t.Fatalf("%s left temp files behind: %v", when, tmps)
		}
	}

	// Encode failure: rejected before any file is touched.
	bad := sampleRecord()
	bad.Fingerprint = ""
	if err := store.Save(bad); err == nil {
		t.Fatal("Save accepted a record without a fingerprint")
	}
	noTemps("encode failure")

	// Commit failure: the destination path is occupied by a non-empty
	// directory, so the rename cannot succeed no matter the platform
	// or privilege level. The written temp file must be removed.
	rec := sampleRecord()
	final := filepath.Join(store.Dir(), rec.Fingerprint+".ckpt")
	if err := os.MkdirAll(filepath.Join(final, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(rec); err == nil {
		t.Fatal("Save reported success renaming onto a non-empty directory")
	}
	noTemps("commit failure")

	// With the obstruction gone the same Save succeeds and is loadable.
	if err := os.RemoveAll(final); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := store.Load(rec.Fingerprint); !ok || err != nil {
		t.Fatalf("Load after recovered Save: ok %v, err %v", ok, err)
	}
	noTemps("successful save")
}

// TestCheckpointStoreQuarantinesCorruption: a corrupt or truncated
// record must be quarantined (cell re-runs), never returned as a
// result.
func TestCheckpointStoreQuarantinesCorruption(t *testing.T) {
	inj := faultinject.New(faultinject.Plan{Seed: 7})
	rec := sampleRecord()
	valid, err := EncodeCellRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]func([]byte) []byte{
		"bitflips":  inj.CorruptRecord,
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"empty":     func(b []byte) []byte { return nil },
		"garbage":   func(b []byte) []byte { return []byte("not a checkpoint at all") },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			store, err := OpenCheckpointStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(store.Dir(), rec.Fingerprint+".ckpt")
			if err := os.WriteFile(path, corrupt(valid), 0o644); err != nil {
				t.Fatal(err)
			}
			_, ok, err := store.Load(rec.Fingerprint)
			if err != nil {
				t.Fatalf("corrupt record surfaced an error instead of quarantine: %v", err)
			}
			if ok {
				t.Fatal("corrupt record was merged as a valid result")
			}
			if store.Quarantined() != 1 {
				t.Errorf("Quarantined = %d, want 1", store.Quarantined())
			}
			if _, err := os.Stat(path + ".bad"); err != nil {
				t.Errorf("corrupt record not set aside: %v", err)
			}
			// The cell slot is free again: a fresh Save must succeed and load.
			if err := store.Save(rec); err != nil {
				t.Fatal(err)
			}
			if _, ok, _ := store.Load(rec.Fingerprint); !ok {
				t.Error("re-saved record not loadable")
			}
		})
	}
}

// TestCheckpointStoreRejectsForeignFingerprint: a record stored under
// the wrong key (e.g. a hand-renamed file) must not resume that cell.
func TestCheckpointStoreRejectsForeignFingerprint(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	b, err := EncodeCellRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	other := strings.Repeat("f", len(rec.Fingerprint))
	if err := os.WriteFile(filepath.Join(store.Dir(), other+".ckpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := store.Load(other); ok {
		t.Fatal("record accepted under a foreign fingerprint")
	}
	if store.Quarantined() != 1 {
		t.Errorf("Quarantined = %d, want 1", store.Quarantined())
	}
}

// FuzzCheckpointDecode: whatever bytes arrive — truncated, bit-
// flipped, or arbitrary garbage — decoding either fails cleanly or
// yields the original record; a mutated record must never decode to
// something different from the record its bytes were derived from.
func FuzzCheckpointDecode(f *testing.F) {
	rec := sampleRecord()
	valid, err := EncodeCellRecord(rec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, 0, byte(0))
	f.Add(valid, 7, byte(0xFF))
	f.Add([]byte("ENTCKPT v1 deadbeef\n{}"), 0, byte(0))
	f.Add([]byte(nil), 3, byte(1))
	f.Fuzz(func(t *testing.T, data []byte, pos int, xor byte) {
		// Arbitrary bytes: must not panic, and anything that decodes
		// must satisfy the record invariants.
		if rec, err := DecodeCellRecord(data); err == nil {
			if rec.SchemaVersion != CheckpointSchemaVersion || rec.Fingerprint == "" {
				t.Fatalf("invalid record decoded without error: %+v", rec)
			}
		}

		// Single-byte mutation of a valid record: the checksum must
		// catch any semantic change — decode errors, or (when the
		// mutation is a no-op, e.g. hex case) yields the identical
		// record.
		mutated := append([]byte(nil), valid...)
		if len(mutated) > 0 {
			if pos < 0 {
				pos = -pos
			}
			mutated[pos%len(mutated)] ^= xor
		}
		got, err := DecodeCellRecord(mutated)
		if err == nil && !reflect.DeepEqual(got, rec) {
			t.Fatalf("mutated record silently decoded to a different result:\ngot  %+v\nwant %+v", got, rec)
		}
	})
}

func TestFuzzCheckpointDecodeSeedsPass(t *testing.T) {
	// The fuzz seeds double as a plain regression test so `go test`
	// exercises them without -fuzz.
	rec := sampleRecord()
	valid, err := EncodeCellRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCellRecord(valid); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCellRecord(valid[:len(valid)-3]); err == nil {
		t.Error("truncated record decoded")
	}
	if _, err := DecodeCellRecord([]byte("ENTCKPT v1 deadbeef\n{}")); err == nil {
		t.Error("short checksum accepted")
	}
}

// TestCheckpointStoreSaveIdempotent: two runs finishing the same cell
// (a fault-plan flight and a clean flight of one fingerprint, which
// the job server keeps apart) both Save the identical record; both
// must succeed without an error and without doubling files —
// re-persisting what is already stored is a no-op, not a conflict.
func TestCheckpointStoreSaveIdempotent(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	const savers = 8
	errs := make(chan error, savers)
	start := make(chan struct{})
	for i := 0; i < savers; i++ {
		go func() {
			<-start
			errs <- store.Save(rec)
		}()
	}
	close(start)
	for i := 0; i < savers; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent identical Save: %v", err)
		}
	}
	if n, err := store.Count(); err != nil || n != 1 {
		t.Errorf("Count after %d identical saves = %d, %v", savers, n, err)
	}
	got, ok, err := store.Load(rec.Fingerprint)
	if err != nil || !ok {
		t.Fatalf("Load: ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("record damaged by concurrent saves:\ngot  %+v\nwant %+v", got, rec)
	}
	if tmps, _ := filepath.Glob(filepath.Join(store.Dir(), "*.tmp")); len(tmps) != 0 {
		t.Errorf("stale temp files: %v", tmps)
	}
}

// TestCheckpointStoreSaveConflict: a Save whose fingerprint already
// holds a valid record with *different* bytes must fail with
// ErrCheckpointConflict and leave the original record untouched —
// disagreeing results for one deterministic cell are evidence of
// corruption, never something to paper over by overwriting.
func TestCheckpointStoreSaveConflict(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	if err := store.Save(rec); err != nil {
		t.Fatal(err)
	}
	altered := rec
	altered.Result.R.Cycles++ // same fingerprint, different result bytes
	err = store.Save(altered)
	if !errors.Is(err, ErrCheckpointConflict) {
		t.Fatalf("conflicting Save error = %v, want ErrCheckpointConflict", err)
	}
	got, ok, lerr := store.Load(rec.Fingerprint)
	if lerr != nil || !ok {
		t.Fatalf("Load after conflict: ok %v, err %v", ok, lerr)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("conflicting Save modified the stored record:\ngot  %+v\nwant %+v", got, rec)
	}
}

// TestCheckpointStoreSaveReplacesCorrupt: a corrupt record on disk was
// never going to resume; a fresh Save of the same fingerprint replaces
// it instead of reporting a conflict against garbage.
func TestCheckpointStoreSaveReplacesCorrupt(t *testing.T) {
	store, err := OpenCheckpointStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := sampleRecord()
	path := filepath.Join(store.Dir(), rec.Fingerprint+".ckpt")
	if err := os.WriteFile(path, []byte("ENTCKPT v1 garbage\nnot json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := store.Save(rec); err != nil {
		t.Fatalf("Save over corrupt record: %v", err)
	}
	got, ok, lerr := store.Load(rec.Fingerprint)
	if lerr != nil || !ok {
		t.Fatalf("Load after replacing corruption: ok %v, err %v", ok, lerr)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Errorf("replaced record differs:\ngot  %+v\nwant %+v", got, rec)
	}
}
