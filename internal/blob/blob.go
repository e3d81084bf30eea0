// Package blob is the one durable-write primitive under the on-disk
// stores (harness.CheckpointStore and trace.Store): a flat directory
// of named files. A put writes a uniquely named temp file, fsyncs it,
// commits it with a hard link that never clobbers a committed file,
// then fsyncs the directory; every error path removes the temp file.
// Writers racing on one name, in one process or several sharing the
// directory, see exactly one commit win. A read verifies the file with
// the caller's check and quarantines a failing one to <name>.bad.
// EXPERIMENTS.md, "Durable storage", states the guarantee for users.
package blob

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// ErrConflict reports a Put over a committed file that holds different
// bytes the caller's verify step accepts. The committed file is left
// as it is. Test with errors.Is.
var ErrConflict = errors.New("conflicting content")

// Store is a directory of committed files. Safe for concurrent use,
// also by several Store values or processes sharing one directory.
type Store struct {
	dir string

	// fault runs before each step of a put ("write", "sync" and
	// "commit") and fails the step with its error. Only tests, which
	// inject faults through it, make it fail.
	fault func(step string) error
}

// Open opens (creating if needed) a store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir, fault: func(string) error { return nil }}, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// Temp is an uncommitted file of a streamed put, for content whose
// name is known only once it is written (a content address).
type Temp struct {
	s *Store
	f *os.File
}

// Create starts a streamed put in a new, uniquely named temp file.
// Defer Discard right after a successful Create.
func (s *Store) Create() (*Temp, error) {
	f, err := os.CreateTemp(s.dir, "put-*.tmp")
	if err != nil {
		return nil, fmt.Errorf("blob: creating temp file: %w", err)
	}
	return &Temp{s: s, f: f}, nil
}

// Write appends p to the temp file.
func (t *Temp) Write(p []byte) (int, error) {
	if err := t.s.fault("write"); err != nil {
		return 0, err
	}
	return t.f.Write(p)
}

// Commit makes the temp file durable and commits it under name. It
// never removes or replaces a committed file: when name already
// exists, existed is true and the committed file is left as it is.
func (t *Temp) Commit(name string) (existed bool, err error) {
	if err := t.s.fault("sync"); err != nil {
		return false, err
	}
	if err := t.f.Sync(); err != nil {
		return false, fmt.Errorf("blob: syncing %s: %w", name, err)
	}
	if err := t.f.Close(); err != nil {
		return false, fmt.Errorf("blob: closing %s: %w", name, err)
	}
	return t.link(name)
}

func (t *Temp) link(name string) (existed bool, err error) {
	if err := t.s.fault("commit"); err != nil {
		return false, err
	}
	err = os.Link(t.f.Name(), t.s.path(name))
	if errors.Is(err, fs.ErrExist) {
		return true, nil
	}
	if err != nil {
		return false, fmt.Errorf("blob: committing %s: %w", name, err)
	}
	// Best-effort: some platforms and filesystems reject fsync on a
	// directory, and the commit's atomicity does not depend on it.
	if d, err := os.Open(t.s.dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
	return false, nil
}

// Discard removes the temp file. A committed file is another link to
// the same bytes and stays, so Discard is safe after Commit and on
// every error path.
func (t *Temp) Discard() {
	t.f.Close()
	os.Remove(t.f.Name())
}

// Put commits data under name atomically and durably. A Put of the
// bytes already committed under name is a no-op. When name holds
// different bytes that verify accepts, Put returns ErrConflict and
// leaves them; bytes verify rejects are corrupt, and Put quarantines
// them and commits data in their place.
func (s *Store) Put(name string, data []byte, verify func([]byte) error) error {
	t, err := s.Create()
	if err != nil {
		return err
	}
	defer t.Discard()
	if _, err := t.Write(data); err != nil {
		return fmt.Errorf("blob: writing %s: %w", name, err)
	}
	existed, err := t.Commit(name)
	for err == nil && existed {
		old, rerr := os.ReadFile(s.path(name))
		switch {
		case errors.Is(rerr, fs.ErrNotExist):
			// Quarantined since the commit found it: commit again.
		case rerr != nil:
			return fmt.Errorf("blob: reading %s: %w", name, rerr)
		case bytes.Equal(old, data):
			return nil
		case verify(old) == nil:
			return fmt.Errorf("blob: %s: %w", name, ErrConflict)
		default:
			if qerr := s.quarantine(name); qerr != nil && !errors.Is(qerr, fs.ErrNotExist) {
				return fmt.Errorf("blob: quarantining %s: %w", name, qerr)
			}
		}
		existed, err = t.link(name)
	}
	return err
}

// Get returns the file committed under name; ok is false when there
// is none. A file verify rejects is quarantined to <name>.bad and
// reported missing.
func (s *Store) Get(name string, verify func([]byte) error) (data []byte, ok bool, err error) {
	b, err := os.ReadFile(s.path(name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("blob: reading %s: %w", name, err)
	}
	if verify(b) != nil {
		// Best-effort: a file the rename leaves in place is quarantined
		// again by the next Get.
		_ = s.quarantine(name)
		return nil, false, nil
	}
	return b, true, nil
}

func (s *Store) quarantine(name string) error {
	return os.Rename(s.path(name), s.path(name+".bad"))
}

// Open opens the file committed under name for a streaming read.
func (s *Store) Open(name string) (*os.File, error) {
	return os.Open(s.path(name))
}

// List returns the names of the committed files that end in suffix,
// with the suffix trimmed, in lexical order.
func (s *Store) List(suffix string) ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if name, ok := strings.CutSuffix(e.Name(), suffix); ok && !e.IsDir() {
			out = append(out, name)
		}
	}
	return out, nil
}
