package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"entangling/internal/workload"
)

// This file implements the sweep checkpoint store. A long sweep is a
// cross-product of cells, each expensive and each independently
// deterministic; the store persists every completed cell as its own
// crash-safe record (write-temp + rename, checksummed payload) keyed
// by a fingerprint of everything that determines the cell's result.
// An interrupted figure regeneration resumed with the same store
// re-runs only the missing cells and reproduces the uninterrupted
// sweep byte-for-byte — the differential tests in resume_test.go hold
// the harness to exactly that claim.

// CheckpointSchemaVersion identifies the record layout; bump it on any
// incompatible change. Records of another version never resume — their
// cells re-run.
//
// Version history:
//
//	1: initial layout.
//	2: cpu.Results gained the windowed lead-histogram quantiles
//	   (LeadP50/LeadP99); v1 records would silently resume with the
//	   fields zeroed, so they re-run instead.
//	3: workload.Params gained the adversarial-preset and trace-backed
//	   fields (CodePhaseLen, InterruptEvery, ColdEvery, TraceSHA256,
//	   ...), which participate in every cell fingerprint; v2 records
//	   hash a different parameter document, so they re-run.
const CheckpointSchemaVersion = 3

// checkpointMagic leads every record's header line.
const checkpointMagic = "ENTCKPT"

// CellRecord is one persisted (configuration, workload) result.
type CellRecord struct {
	SchemaVersion int `json:"schema_version"`
	// Fingerprint commits the record to the exact cell it was measured
	// on: configuration fields, workload parameters and run windows.
	Fingerprint string    `json:"fingerprint"`
	Config      string    `json:"config"`
	Workload    string    `json:"workload"`
	Result      RunResult `json:"result"`
}

// CellFingerprint derives the checkpoint key of a cell. Two cells
// share a fingerprint exactly when they are guaranteed to produce the
// same result: same configuration (every field), same fully derived
// workload parameters, and same warmup/measure windows. The simulator
// is deterministic over those inputs, which is what makes resuming
// from a fingerprint-matched record behaviour-preserving.
func CellFingerprint(cfg Configuration, spec workload.Spec, warmup, measure uint64) string {
	payload := struct {
		Schema  int             `json:"schema"`
		Config  Configuration   `json:"config"`
		Name    string          `json:"name"`
		Params  workload.Params `json:"params"`
		Warmup  uint64          `json:"warmup"`
		Measure uint64          `json:"measure"`
	}{CheckpointSchemaVersion, cfg, spec.Name, spec.Params, warmup, measure}
	b, err := json.Marshal(payload)
	if err != nil {
		panic(err) // plain structs of scalars cannot fail to marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// EncodeCellRecord serializes a record as a header line (magic,
// version, SHA-256 of the payload) followed by the JSON payload. The
// checksum covers every payload byte, so truncated or bit-flipped
// records are detected at decode instead of being merged as results.
func EncodeCellRecord(rec CellRecord) ([]byte, error) {
	if rec.SchemaVersion != CheckpointSchemaVersion {
		return nil, fmt.Errorf("harness: checkpoint record schema %d, want %d",
			rec.SchemaVersion, CheckpointSchemaVersion)
	}
	if rec.Fingerprint == "" || rec.Config == "" || rec.Workload == "" {
		return nil, errors.New("harness: checkpoint record missing fingerprint or cell name")
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding checkpoint record: %w", err)
	}
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s v%d %s\n", checkpointMagic, CheckpointSchemaVersion, hex.EncodeToString(sum[:]))
	return append([]byte(header), payload...), nil
}

// DecodeCellRecord parses and verifies an encoded record. Any
// corruption — truncation, a flipped byte in header or payload, a
// wrong version — yields an error, never a partially decoded record.
func DecodeCellRecord(data []byte) (CellRecord, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return CellRecord{}, errors.New("harness: checkpoint record: missing header line")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != checkpointMagic {
		return CellRecord{}, errors.New("harness: checkpoint record: bad magic")
	}
	if fields[1] != fmt.Sprintf("v%d", CheckpointSchemaVersion) {
		return CellRecord{}, fmt.Errorf("harness: checkpoint record: version %q, want v%d",
			fields[1], CheckpointSchemaVersion)
	}
	want, err := hex.DecodeString(fields[2])
	if err != nil || len(want) != sha256.Size {
		return CellRecord{}, errors.New("harness: checkpoint record: malformed checksum")
	}
	payload := data[nl+1:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], want) {
		return CellRecord{}, errors.New("harness: checkpoint record: checksum mismatch (truncated or corrupt)")
	}
	var rec CellRecord
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return CellRecord{}, fmt.Errorf("harness: checkpoint record: %w", err)
	}
	if rec.SchemaVersion != CheckpointSchemaVersion {
		return CellRecord{}, fmt.Errorf("harness: checkpoint record: payload schema %d, want %d",
			rec.SchemaVersion, CheckpointSchemaVersion)
	}
	if rec.Fingerprint == "" || rec.Config == "" || rec.Workload == "" {
		return CellRecord{}, errors.New("harness: checkpoint record: missing fingerprint or cell name")
	}
	return rec, nil
}

// CheckpointStore persists cell records in a directory, one file per
// fingerprint. Saves are atomic (write temp, rename), so a process
// killed mid-save leaves at worst a stale .tmp file and never a
// half-written record; corrupt records found at load are quarantined
// (renamed aside) so their cells re-run instead of poisoning results.
// Safe for concurrent use by a sweep's workers.
type CheckpointStore struct {
	dir string

	mu          sync.Mutex
	quarantined int
}

// OpenCheckpointStore opens (creating if needed) a store at dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if dir == "" {
		return nil, errors.New("harness: checkpoint directory must be named")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("harness: opening checkpoint store: %w", err)
	}
	return &CheckpointStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.dir }

func (s *CheckpointStore) path(fingerprint string) string {
	return filepath.Join(s.dir, fingerprint+".ckpt")
}

// ErrCheckpointConflict reports a Save whose fingerprint already holds
// a valid record with different bytes. Cells are deterministic over
// their fingerprint, so two disagreeing records for one fingerprint
// mean corruption or nondeterminism somewhere — silently letting the
// last writer win would poison every later resume with whichever
// version happened to land second. Test with errors.Is.
var ErrCheckpointConflict = errors.New("conflicting checkpoint record for fingerprint")

// Save atomically and durably persists rec: the bytes are fsynced
// before the rename and the directory is fsynced after it, so a record
// Save reported committed survives power loss, not just process crash.
// A failed Save removes its temp file — the store never accumulates
// .tmp litter on error paths.
//
// Save is idempotent under concurrency: saving a record identical to
// the one already stored is a no-op success (the job server keeps a
// fault-plan flight and a clean flight of the same fingerprint apart,
// so both can finish the cell and save it), while saving different bytes
// over a valid existing record fails with ErrCheckpointConflict. A
// corrupt or undecodable existing record is simply replaced — it was
// never going to resume anyway.
func (s *CheckpointStore) Save(rec CellRecord) error {
	b, err := EncodeCellRecord(rec)
	if err != nil {
		return err
	}
	final := s.path(rec.Fingerprint)
	tmp := final + ".tmp"

	// Serialize same-store saves so the compare-then-commit below is
	// atomic with respect to this process; cross-process racers fall
	// back on the rename's atomicity (identical bytes commute, and a
	// conflicting racer is caught by whichever writer checks second).
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, rerr := os.ReadFile(final); rerr == nil {
		if bytes.Equal(existing, b) {
			return nil
		}
		if _, derr := DecodeCellRecord(existing); derr == nil {
			return fmt.Errorf("harness: %w %s", ErrCheckpointConflict, rec.Fingerprint)
		}
		// Existing record is corrupt: replace it.
	}
	if err := writeFileSync(tmp, b); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("harness: writing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("harness: committing checkpoint: %w", err)
	}
	syncDir(s.dir)
	return nil
}

// writeFileSync writes data to name and fsyncs it before closing, so
// the bytes are on stable storage when it returns.
func writeFileSync(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory so a just-committed rename in it is
// durable. Best-effort: some platforms and filesystems reject fsync on
// directories, and the rename's atomicity does not depend on it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Load returns the record stored for fingerprint, if any. A missing
// record is (zero, false, nil). A corrupt or mismatched record is
// quarantined — renamed to <fingerprint>.ckpt.bad — and reported as
// missing, so the cell re-runs; it is never silently merged.
func (s *CheckpointStore) Load(fingerprint string) (CellRecord, bool, error) {
	b, err := os.ReadFile(s.path(fingerprint))
	if errors.Is(err, os.ErrNotExist) {
		return CellRecord{}, false, nil
	}
	if err != nil {
		return CellRecord{}, false, fmt.Errorf("harness: reading checkpoint: %w", err)
	}
	rec, derr := DecodeCellRecord(b)
	if derr != nil || rec.Fingerprint != fingerprint {
		s.quarantine(fingerprint)
		return CellRecord{}, false, nil
	}
	return rec, true, nil
}

func (s *CheckpointStore) quarantine(fingerprint string) {
	s.mu.Lock()
	s.quarantined++
	s.mu.Unlock()
	// Best-effort: a failed rename leaves the corrupt file in place,
	// where the next Load will quarantine it again.
	_ = os.Rename(s.path(fingerprint), s.path(fingerprint)+".bad")
}

// Quarantined reports how many corrupt records this store has set
// aside since it was opened.
func (s *CheckpointStore) Quarantined() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.quarantined
}

// Count returns the number of resident (valid-named) records.
func (s *CheckpointStore) Count() (int, error) {
	matches, err := filepath.Glob(filepath.Join(s.dir, "*.ckpt"))
	if err != nil {
		return 0, err
	}
	return len(matches), nil
}
