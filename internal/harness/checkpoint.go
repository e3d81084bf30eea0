package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"entangling/internal/blob"
	"entangling/internal/workload"
)

// This file implements the sweep checkpoint store. A long sweep is a
// cross-product of cells, each expensive and each independently
// deterministic; the store persists every completed cell as its own
// crash-safe record (an internal/blob file with a checksummed payload)
// keyed by a fingerprint of everything that determines the cell's result.
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
// fingerprint, under the durability contract of internal/blob: a
// record Save reported committed survives a crash or power loss, and
// a corrupt record found at load is quarantined so its cell re-runs
// instead of poisoning results. Safe for concurrent use, also by
// several stores (or processes) sharing one directory.
type CheckpointStore struct {
	blobs *blob.Store
}

// OpenCheckpointStore opens (creating if needed) a store at dir.
func OpenCheckpointStore(dir string) (*CheckpointStore, error) {
	if dir == "" {
		return nil, errors.New("harness: checkpoint directory must be named")
	}
	b, err := blob.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("harness: opening checkpoint store: %w", err)
	}
	return &CheckpointStore{blobs: b}, nil
}

// Dir returns the store's directory.
func (s *CheckpointStore) Dir() string { return s.blobs.Dir() }

// Save atomically and durably persists rec as <fingerprint>.ckpt.
//
// Save is idempotent under concurrency: saving a record identical to
// the one already stored is a no-op success (writers that share a
// store directory, such as two sweeps or a sweep and a job server, can
// both finish the same cell and save it), while saving different
// bytes over a valid existing record fails with blob.ErrConflict:
// cells are deterministic over their fingerprint, so disagreeing
// records mean corruption or nondeterminism, and letting the last
// writer win would poison every later resume. A corrupt existing
// record is quarantined and replaced — it was never going to resume.
func (s *CheckpointStore) Save(rec CellRecord) error {
	b, err := EncodeCellRecord(rec)
	if err != nil {
		return err
	}
	verify := func(old []byte) error {
		_, err := decodeStored(rec.Fingerprint, old)
		return err
	}
	if err := s.blobs.Put(rec.Fingerprint+".ckpt", b, verify); err != nil {
		return fmt.Errorf("harness: saving checkpoint: %w", err)
	}
	return nil
}

// decodeStored decodes a record stored under fingerprint; a valid
// record of another fingerprint (a hand-renamed file) is an error.
func decodeStored(fingerprint string, b []byte) (CellRecord, error) {
	rec, err := DecodeCellRecord(b)
	if err == nil && rec.Fingerprint != fingerprint {
		err = fmt.Errorf("harness: checkpoint record of %s stored as %s", rec.Fingerprint, fingerprint)
	}
	return rec, err
}

// Load returns the checkpointed result of the cell named config x
// workload, stored under its fingerprint. A missing record, or one
// saved for another cell, is (zero, false, nil). A corrupt record, or
// one of another fingerprint, is quarantined — renamed to
// <fingerprint>.ckpt.bad — and reported as missing, so the cell
// re-runs; it is never silently merged.
func (s *CheckpointStore) Load(fingerprint, config, workload string) (RunResult, bool, error) {
	var rec CellRecord
	_, ok, err := s.blobs.Get(fingerprint+".ckpt", func(b []byte) (err error) {
		rec, err = decodeStored(fingerprint, b)
		return err
	})
	if err != nil {
		return RunResult{}, false, fmt.Errorf("harness: loading checkpoint: %w", err)
	}
	if !ok || rec.Config != config || rec.Workload != workload {
		return RunResult{}, false, nil
	}
	return rec.Result, true, nil
}

// Quarantined reports how many corrupt records this store has set
// aside since it was opened.
func (s *CheckpointStore) Quarantined() int { return s.blobs.Quarantined() }

// Count returns the number of resident (valid-named) records.
func (s *CheckpointStore) Count() (int, error) {
	names, err := s.blobs.List(".ckpt")
	return len(names), err
}
