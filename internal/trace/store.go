package trace

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"

	"entangling/internal/blob"
)

// This file is the durable home of uploaded traces: a content-addressed
// store of validated ENTRACE1 files, living next to the checkpoint
// store and shared by the upload API and the job resolver. Content
// addressing gives uploads the same identity properties checkpointed
// cells have — the ID is the SHA-256 of the stored payload, so a
// re-upload is a dedupe hit, and a job spec naming "trace:<id>" pins
// the exact bytes it will simulate.
//
// Nothing enters the store unvalidated: Put streams the upload through
// the hardened decoder (with the caller's Limits) while hashing, so a
// malformed or over-budget trace is rejected before the store's
// namespace learns its name, and a stored trace is decodable by
// construction — it can never poison a later job.

// TraceInfo describes one stored trace.
type TraceInfo struct {
	// ID is the SHA-256 (hex) of the stored ENTRACE1 payload.
	ID string `json:"id"`
	// Instructions is the validated record count.
	Instructions uint64 `json:"instructions"`
	// Bytes is the stored payload size.
	Bytes int64 `json:"bytes"`
	// Format records what the upload arrived as ("entrace1" or
	// "champsim"); the stored payload is always ENTRACE1.
	Format string `json:"format"`
}

// Store is a content-addressed directory of validated traces: each
// trace is an ENTRACE1 payload <id>.trace plus a JSON sidecar
// <id>.json, both written under the durability contract of
// internal/blob. Safe for concurrent use, also by several stores (or
// processes) sharing one directory.
type Store struct {
	blobs *blob.Store
}

// OpenStore opens (creating if needed) a trace store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	b, err := blob.Open(dir)
	if err != nil {
		return nil, fmt.Errorf("trace: opening store: %w", err)
	}
	return &Store{blobs: b}, nil
}

// validID gates every ID used in a path: exactly a lowercase SHA-256
// hex string, so a hostile ID cannot traverse out of the store.
func validID(id string) bool {
	if len(id) != 64 {
		return false
	}
	for _, c := range id {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ErrUnknownTrace is returned by Open/Stat for IDs not in the store.
// Any other error from them is a storage failure, returned with its
// cause.
var ErrUnknownTrace = errors.New("trace: unknown trace id")

// Put ingests one trace from r, validating every record during the
// streaming decode (enforcing lim mid-stream) and storing the
// canonical ENTRACE1 payload under its content address. format selects
// the input decoder: "" or "entrace1" stores the (uncompressed,
// re-encoded) upload as-is semantically; "champsim" converts first.
// Re-uploading existing content is an idempotent dedupe hit, reported
// via the second return.
func (s *Store) Put(r io.Reader, format string, lim Limits) (TraceInfo, bool, error) {
	tmp, err := s.blobs.Create()
	if err != nil {
		return TraceInfo{}, false, fmt.Errorf("trace: staging upload: %w", err)
	}
	defer tmp.Discard()

	// The payload is re-encoded through Writer in both paths, so the
	// stored bytes are canonical (uncompressed, minimal deltas) and
	// the content address is independent of the upload's compression.
	h := sha256.New()
	var size byteCount
	out := io.MultiWriter(tmp, h, &size)

	var src Source
	switch format {
	case "champsim":
		src, err = NewChampSimReader(r, ChampSimOptions{Limits: lim})
	case "", "entrace1":
		src, err = NewReaderLimited(r, lim)
	default:
		return TraceInfo{}, false, fmt.Errorf("trace: unknown upload format %q", format)
	}
	if err != nil {
		return TraceInfo{}, false, err
	}
	count, err := encode(out, src)
	if err != nil {
		return TraceInfo{}, false, err
	}

	info := TraceInfo{
		ID:           hex.EncodeToString(h.Sum(nil)),
		Instructions: count,
		Bytes:        int64(size),
		Format:       format,
	}
	if info.Format == "" {
		info.Format = "entrace1"
	}
	// The payload is committed before its sidecar and never removed, so
	// every trace Stat finds can be opened.
	existed, err := tmp.Commit(info.ID + ".trace")
	if err != nil {
		return TraceInfo{}, false, fmt.Errorf("trace: storing upload: %w", err)
	}
	meta, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return TraceInfo{}, false, fmt.Errorf("trace: encoding metadata: %w", err)
	}
	err = s.blobs.Put(info.ID+".json", append(meta, '\n'), func(b []byte) error {
		return json.Unmarshal(b, new(TraceInfo))
	})
	if errors.Is(err, blob.ErrConflict) {
		// The same content, uploaded in another format, stored its
		// sidecar first: this upload is a dedupe hit on it.
		stored, err := s.Stat(info.ID)
		return stored, err == nil, err
	}
	if err != nil {
		return TraceInfo{}, false, fmt.Errorf("trace: writing metadata: %w", err)
	}
	// A stored payload was paid for by its first upload, even when
	// this one restores a lost or quarantined sidecar.
	return info, existed, nil
}

// byteCount is an io.Writer that counts the bytes written to it.
type byteCount int64

func (c *byteCount) Write(p []byte) (int, error) {
	*c += byteCount(len(p))
	return len(p), nil
}

// encode writes src's records to dst as canonical ENTRACE1 (an
// uncompressed payload with minimal deltas) and returns their number.
// A decoding src validates each record as it is read, so a malformed
// or over-limit input fails mid-stream; an input of no records fails.
func encode(dst io.Writer, src Source) (uint64, error) {
	w, err := NewWriter(dst, false)
	if err != nil {
		return 0, err
	}
	n, err := Copy(w.Write, src, math.MaxUint64)
	if err == nil {
		err = w.Close()
	}
	if err == nil && n == 0 {
		err = errors.New("trace: input contains no records")
	}
	return n, err
}

// Stat returns the metadata of a stored trace. A corrupt sidecar is
// quarantined to <id>.json.bad and the trace reported unknown; a
// re-upload restores it.
func (s *Store) Stat(id string) (TraceInfo, error) {
	if !validID(id) {
		return TraceInfo{}, fmt.Errorf("trace: id %q: %w", id, ErrUnknownTrace)
	}
	var info TraceInfo
	_, ok, err := s.blobs.Get(id+".json", func(b []byte) error {
		return json.Unmarshal(b, &info)
	})
	if err != nil {
		return TraceInfo{}, fmt.Errorf("trace: id %q: %w", id, err)
	}
	if !ok {
		return TraceInfo{}, fmt.Errorf("trace: id %q: %w", id, ErrUnknownTrace)
	}
	return info, nil
}

// Open returns the stored ENTRACE1 payload for reading.
func (s *Store) Open(id string) (io.ReadCloser, error) {
	if !validID(id) {
		return nil, fmt.Errorf("trace: id %q: %w", id, ErrUnknownTrace)
	}
	f, err := s.blobs.Open(id + ".trace")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("trace: id %q: %w", id, ErrUnknownTrace)
	}
	if err != nil {
		return nil, fmt.Errorf("trace: id %q: %w", id, err)
	}
	return f, nil
}

// List returns the metadata of every stored trace, ordered by ID.
func (s *Store) List() ([]TraceInfo, error) {
	ids, err := s.blobs.List(".json")
	if err != nil {
		return nil, fmt.Errorf("trace: listing store: %w", err)
	}
	var out []TraceInfo
	for _, id := range ids {
		// Stat skips names that are not trace IDs, and entries whose
		// sidecar is missing or corrupt, rather than fail the listing.
		if info, err := s.Stat(id); err == nil {
			out = append(out, info)
		}
	}
	return out, nil
}
