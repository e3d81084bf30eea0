package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func openTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := OpenStore(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStorePutStatOpen(t *testing.T) {
	s := openTestStore(t)
	enc := encodeStream(t, 100, false)

	info, deduped, err := s.Put(bytes.NewReader(enc), "entrace1", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if deduped {
		t.Error("first Put reported dedupe")
	}
	if info.Instructions != 100 {
		t.Errorf("Instructions = %d, want 100", info.Instructions)
	}
	if info.Format != "entrace1" {
		t.Errorf("Format = %q", info.Format)
	}

	// The ID is the SHA-256 of the stored payload — verifiable from the
	// outside, which is the whole point of content addressing.
	rc, err := s.Open(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(stored); hex.EncodeToString(sum[:]) != info.ID {
		t.Error("stored payload does not hash to its ID")
	}
	if int64(len(stored)) != info.Bytes {
		t.Errorf("Bytes = %d, stored %d", info.Bytes, len(stored))
	}

	got, err := s.Stat(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got != info {
		t.Errorf("Stat = %+v, want %+v", got, info)
	}
}

func TestStorePutDedupes(t *testing.T) {
	s := openTestStore(t)
	enc := encodeStream(t, 50, false)
	first, _, err := s.Put(bytes.NewReader(enc), "", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	second, deduped, err := s.Put(bytes.NewReader(enc), "", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if !deduped {
		t.Error("identical re-upload not reported as dedupe")
	}
	if second.ID != first.ID {
		t.Error("identical content got different IDs")
	}
	infos, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Errorf("store holds %d traces after dedupe, want 1", len(infos))
	}
}

// TestStoreCanonicalizesCompression checks the content address is
// independent of upload compression: the same instructions uploaded
// raw and gzipped land on one ID.
func TestStoreCanonicalizesCompression(t *testing.T) {
	s := openTestStore(t)
	raw := encodeStream(t, 64, false)
	gz := encodeStream(t, 64, true)
	a, _, err := s.Put(bytes.NewReader(raw), "", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	b, deduped, err := s.Put(bytes.NewReader(gz), "", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != b.ID || !deduped {
		t.Errorf("compression changed the content address: %s vs %s (deduped=%v)", a.ID, b.ID, deduped)
	}
}

func TestStorePutChampSim(t *testing.T) {
	s := openTestStore(t)
	var b champsimBuilder
	for i := 0; i < 20; i++ {
		b.plain(0x1000 + uint64(i)*4)
	}
	info, _, err := s.Put(bytes.NewReader(b.buf.Bytes()), "champsim", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Format != "champsim" || info.Instructions != 20 {
		t.Errorf("champsim upload: %+v", info)
	}
	// The stored payload is ENTRACE1 regardless of upload format.
	rc, err := s.Open(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	r, err := NewReader(rc)
	if err != nil {
		t.Fatalf("stored champsim import is not ENTRACE1: %v", err)
	}
	var in Instruction
	var n uint64
	for r.Next(&in) {
		n++
	}
	if r.Err() != nil || n != 20 {
		t.Errorf("stored stream: n=%d err=%v", n, r.Err())
	}
}

// TestStoreRejectsMalformedWithoutResidue checks a failed ingest leaves
// the store directory clean: no trace, no metadata, no leaked temp file
// — a rejected upload never poisons the namespace.
func TestStoreRejectsMalformedWithoutResidue(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	bad := append(header(0, [3]byte{}), flagPCDelta, 0 /* zero size */, 0)
	if _, _, err := s.Put(bytes.NewReader(bad), "", Limits{}); !errors.Is(err, ErrZeroSize) {
		t.Fatalf("err = %v, want ErrZeroSize", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("residue after rejected upload: %s", e.Name())
	}
}

func TestStoreRejectsOverLimit(t *testing.T) {
	s := openTestStore(t)
	enc := encodeStream(t, 101, false)
	_, _, err := s.Put(bytes.NewReader(enc), "", Limits{MaxInstrs: 100})
	if !errors.Is(err, ErrLimitExceeded) {
		t.Fatalf("err = %v, want ErrLimitExceeded", err)
	}
	if infos, _ := s.List(); len(infos) != 0 {
		t.Error("over-limit upload entered the store")
	}
}

func TestStoreRejectsEmptyUpload(t *testing.T) {
	s := openTestStore(t)
	empty := header(0, [3]byte{})
	if _, _, err := s.Put(bytes.NewReader(empty), "", Limits{}); err == nil {
		t.Error("zero-record upload accepted")
	}
}

// TestStoreHostileIDs checks path-traversal shaped IDs are rejected at
// the validation gate, never reaching the filesystem.
func TestStoreHostileIDs(t *testing.T) {
	s := openTestStore(t)
	for _, id := range []string{
		"../../../etc/passwd",
		"..", "", "abc",
		strings.Repeat("A", 64), // uppercase hex is not canonical
		strings.Repeat("a", 63) + "/",
	} {
		if _, err := s.Stat(id); !errors.Is(err, ErrUnknownTrace) {
			t.Errorf("Stat(%q): err = %v, want ErrUnknownTrace", id, err)
		}
		if _, err := s.Open(id); !errors.Is(err, ErrUnknownTrace) {
			t.Errorf("Open(%q): err = %v, want ErrUnknownTrace", id, err)
		}
	}
}

func TestStoreListSorted(t *testing.T) {
	s := openTestStore(t)
	for seed := int64(1); seed <= 3; seed++ {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf, false)
		ins := genStream(seed, 10)
		for i := range ins {
			if err := w.Write(&ins[i]); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		if _, _, err := s.Put(bytes.NewReader(buf.Bytes()), "", Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("List = %d entries, want 3", len(infos))
	}
	for i := 1; i < len(infos); i++ {
		if infos[i-1].ID >= infos[i].ID {
			t.Error("List not sorted by ID")
		}
	}
}

// TestStoreSurvivesReopen checks persistence: a second Store over the
// same directory sees the first one's uploads (warm restart).
func TestStoreSurvivesReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	s1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeStream(t, 30, false)
	info, _, err := s1.Put(bytes.NewReader(enc), "", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s2.Stat(info.ID)
	if err != nil {
		t.Fatalf("reopened store lost the trace: %v", err)
	}
	if got != info {
		t.Errorf("reopened Stat = %+v, want %+v", got, info)
	}
	if _, deduped, err := s2.Put(bytes.NewReader(enc), "", Limits{}); err != nil || !deduped {
		t.Errorf("re-upload after reopen: deduped=%v err=%v", deduped, err)
	}
}

// TestStoreSharedDirConcurrentPut: two stores on one directory ingest
// identical uploads concurrently. Every Put must succeed, and every
// trace Stat finds must also open: no racer may delete a payload
// another one committed.
func TestStoreSharedDirConcurrentPut(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "traces")
	var stores [2]*Store
	for i := range stores {
		s, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	failures := 0
	for round := 0; round < 200; round++ {
		enc := encodeStream(t, 10+round, false)
		var errs [2]error
		var wg sync.WaitGroup
		for i, s := range stores {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _, errs[i] = s.Put(bytes.NewReader(enc), "", Limits{})
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				failures++
				t.Logf("round %d: %v", round, err)
			}
		}
	}
	if failures != 0 {
		t.Errorf("%d of 400 concurrent identical uploads failed", failures)
	}
	infos, err := stores[0].List()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 200 {
		t.Errorf("List = %d traces, want 200", len(infos))
	}
	for _, info := range infos {
		rc, err := stores[1].Open(info.ID)
		if err != nil {
			t.Errorf("trace %s: Stat finds it but Open fails: %v", info.ID, err)
			continue
		}
		rc.Close()
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Errorf("stale temp files: %v", tmps)
	}
}

// TestStoreQuarantinesCorruptSidecar: a truncated <id>.json makes the
// trace unknown (a typed error, not a corrupt document), is set aside
// as <id>.json.bad, and a re-upload restores the entry.
func TestStoreQuarantinesCorruptSidecar(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	enc := encodeStream(t, 40, false)
	info, _, err := s.Put(bytes.NewReader(enc), "", Limits{})
	if err != nil {
		t.Fatal(err)
	}
	meta := filepath.Join(dir, info.ID+".json")
	b, err := os.ReadFile(meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(meta, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stat(info.ID); !errors.Is(err, ErrUnknownTrace) {
		t.Fatalf("Stat with a truncated sidecar: %v, want ErrUnknownTrace", err)
	}
	if _, err := os.Stat(meta + ".bad"); err != nil {
		t.Errorf("truncated sidecar not quarantined: %v", err)
	}
	if got, _, err := s.Put(bytes.NewReader(enc), "", Limits{}); err != nil || got != info {
		t.Fatalf("re-upload = %+v, %v; want %+v", got, err, info)
	}
	if got, err := s.Stat(info.ID); err != nil || got != info {
		t.Errorf("Stat after re-upload = %+v, %v; want %+v", got, err, info)
	}
}

// TestStoreReadsExistingEntries: a trace stored by an earlier build of
// the store (testdata/store holds its exact files and names) lists,
// stats and opens unchanged, and re-uploading it is a dedupe hit.
func TestStoreReadsExistingEntries(t *testing.T) {
	want := TraceInfo{
		ID:           "0b530cb02ce9c4441397b78d4acb186d23093c3700fecb477b89ba23eb550e94",
		Instructions: 25, Bytes: 204, Format: "entrace1",
	}
	dir := t.TempDir()
	for _, ext := range []string{".trace", ".json"} {
		b, err := os.ReadFile(filepath.Join("testdata", "store", want.ID+ext))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, want.ID+ext), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if infos, err := s.List(); err != nil || len(infos) != 1 || infos[0] != want {
		t.Fatalf("List = %+v, %v; want [%+v]", infos, err, want)
	}
	if got, err := s.Stat(want.ID); err != nil || got != want {
		t.Fatalf("Stat = %+v, %v; want %+v", got, err, want)
	}
	rc, err := s.Open(want.ID)
	if err != nil {
		t.Fatal(err)
	}
	stored, err := io.ReadAll(rc)
	rc.Close()
	if sum := sha256.Sum256(stored); err != nil || hex.EncodeToString(sum[:]) != want.ID {
		t.Errorf("stored payload does not hash to its ID (err %v)", err)
	}
	got, deduped, err := s.Put(bytes.NewReader(encodeStream(t, 25, false)), "", Limits{})
	if err != nil || !deduped || got != want {
		t.Errorf("re-upload = %+v, deduped %v, %v; want a dedupe of %+v", got, deduped, err, want)
	}
}
