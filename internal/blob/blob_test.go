package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"entangling/internal/faultinject"
)

// record frames payload the way the stores frame theirs: a checksum
// header line, then the payload. verify accepts exactly such frames.
func record(payload string) []byte {
	sum := sha256.Sum256([]byte(payload))
	return []byte(hex.EncodeToString(sum[:]) + "\n" + payload)
}

func verify(b []byte) error {
	head, payload, ok := bytes.Cut(b, []byte("\n"))
	sum := sha256.Sum256(payload)
	if !ok || string(head) != hex.EncodeToString(sum[:]) {
		return errors.New("checksum mismatch")
	}
	return nil
}

// openStore opens a store on dir and, when the test ends, fails it if
// anything left a temp file behind: no case may.
func openStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
			t.Errorf("temp files left behind: %v", tmps)
		}
	})
	return s
}

func mustGet(t *testing.T, s *Store, name string) []byte {
	t.Helper()
	b, ok, err := s.Get(name, verify)
	if err != nil || !ok {
		t.Fatalf("Get(%s): ok %v, err %v", name, ok, err)
	}
	return b
}

func TestPutGetListIdempotent(t *testing.T) {
	s := openStore(t, t.TempDir())
	a := record("a")
	if _, ok, err := s.Get("x.rec", verify); ok || err != nil {
		t.Fatalf("empty store Get: ok %v, err %v", ok, err)
	}
	for i := 0; i < 2; i++ { // the second Put of identical bytes is a no-op
		if err := s.Put("x.rec", a, verify); err != nil {
			t.Fatalf("Put #%d: %v", i+1, err)
		}
	}
	if got := mustGet(t, s, "x.rec"); !bytes.Equal(got, a) {
		t.Errorf("Get = %q, want %q", got, a)
	}
	if err := s.Put("y.rec", record("b"), verify); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "z.rec.bad"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := s.List(".rec")
	if err != nil || fmt.Sprint(names) != "[x y]" {
		t.Errorf("List = %v, %v; want [x y]", names, err)
	}
}

// TestPutConflictAndCorruptReplace: different valid bytes over a
// committed file are a conflict and leave it; corrupt bytes are
// quarantined and replaced.
func TestPutConflictAndCorruptReplace(t *testing.T) {
	s := openStore(t, t.TempDir())
	a, b := record("a"), record("b")
	if err := s.Put("x.rec", a, verify); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("x.rec", b, verify); !errors.Is(err, ErrConflict) {
		t.Fatalf("conflicting Put: %v, want ErrConflict", err)
	}
	if got := mustGet(t, s, "x.rec"); !bytes.Equal(got, a) {
		t.Errorf("conflicting Put changed the file to %q", got)
	}
	if err := os.WriteFile(filepath.Join(s.Dir(), "x.rec"), a[:len(a)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("x.rec", b, verify); err != nil {
		t.Fatalf("Put over a corrupt file: %v", err)
	}
	if got := mustGet(t, s, "x.rec"); !bytes.Equal(got, b) {
		t.Errorf("corrupt file not replaced: %q", got)
	}
	if bad, err := os.ReadFile(filepath.Join(s.Dir(), "x.rec.bad")); err != nil || s.Quarantined() != 1 {
		t.Errorf("replaced file not quarantined (%q, %v; count %d)", bad, err, s.Quarantined())
	}
}

// TestInterruptedPutCommitsNothing: a put interrupted between the temp
// write and the commit (a panic unwinding through it) leaves no
// committed file, and the next Put succeeds.
func TestInterruptedPutCommitsNothing(t *testing.T) {
	s := openStore(t, t.TempDir())
	s.fault = func(step string) error {
		if step == "commit" {
			panic("interrupted")
		}
		return nil
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("interruption did not reach the commit step")
			}
		}()
		s.Put("x.rec", record("a"), verify)
	}()
	if _, err := os.Stat(filepath.Join(s.Dir(), "x.rec")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("interrupted put committed a file: %v", err)
	}
	s.fault = func(string) error { return nil }
	if err := s.Put("x.rec", record("a"), verify); err != nil {
		t.Fatalf("Put after interruption: %v", err)
	}
	mustGet(t, s, "x.rec")
}

// TestStepErrorsCleanUp: a write, sync or commit error fails the put,
// buffered or streamed, commits nothing and removes its temp file.
func TestStepErrorsCleanUp(t *testing.T) {
	injected := errors.New("injected")
	for _, step := range []string{"write", "sync", "commit"} {
		t.Run(step, func(t *testing.T) {
			s := openStore(t, t.TempDir())
			s.fault = func(got string) error {
				if got == step {
					return injected
				}
				return nil
			}
			if err := s.Put("x.rec", record("a"), verify); !errors.Is(err, injected) {
				t.Errorf("Put: %v, want the injected error", err)
			}
			streamed := func() error {
				tmp, err := s.Create()
				if err != nil {
					return err
				}
				defer tmp.Discard()
				if _, err := tmp.Write(record("a")); err != nil {
					return err
				}
				_, err = tmp.Commit("x.rec")
				return err
			}
			if err := streamed(); !errors.Is(err, injected) {
				t.Errorf("streamed put: %v, want the injected error", err)
			}
			if names, _ := s.List(".rec"); len(names) != 0 {
				t.Errorf("failed puts committed %v", names)
			}
		})
	}
}

// TestGetQuarantinesCorruption: torn, truncated and bit-flipped files
// are set aside as <name>.bad, counted, and reported missing; the name
// is then free for a fresh Put.
func TestGetQuarantinesCorruption(t *testing.T) {
	inj := faultinject.New(faultinject.Plan{Seed: 7})
	valid := record("a payload long enough to tear in the middle")
	cases := map[string][]byte{
		"bitflips":  inj.CorruptRecord(valid),
		"truncated": valid[:len(valid)/2],
		"torn":      append(append([]byte(nil), valid[:len(valid)/2]...), make([]byte, len(valid)/2)...),
		"empty":     nil,
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			s := openStore(t, t.TempDir())
			path := filepath.Join(s.Dir(), "x.rec")
			if err := os.WriteFile(path, corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok, err := s.Get("x.rec", verify); ok || err != nil {
				t.Fatalf("Get of a corrupt file: ok %v, err %v", ok, err)
			}
			if s.Quarantined() != 1 {
				t.Errorf("Quarantined = %d, want 1", s.Quarantined())
			}
			if b, err := os.ReadFile(path + ".bad"); err != nil || !bytes.Equal(b, corrupt) {
				t.Errorf("corrupt file not set aside intact: %v", err)
			}
			if err := s.Put("x.rec", valid, verify); err != nil {
				t.Fatal(err)
			}
			mustGet(t, s, "x.rec")
		})
	}
}

// racePuts runs one put per input concurrently, alternating between
// two Store values on one directory, and returns each put's error.
func racePuts(t *testing.T, inputs [][]byte) (*Store, []error) {
	dir := t.TempDir()
	stores := [2]*Store{openStore(t, dir), openStore(t, dir)}
	errs := make([]error, len(inputs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, in := range inputs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs[i] = stores[i%2].Put("x.rec", in, verify)
		}()
	}
	close(start)
	wg.Wait()
	return stores[0], errs
}

func TestSharedDirIdenticalPuts(t *testing.T) {
	for round := 0; round < 50; round++ {
		in := record(fmt.Sprint("cell ", round))
		s, errs := racePuts(t, [][]byte{in, in, in, in, in, in, in, in})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("round %d: identical Put failed: %v", round, err)
			}
		}
		if got := mustGet(t, s, "x.rec"); !bytes.Equal(got, in) {
			t.Fatalf("round %d: committed %q", round, got)
		}
	}
}

func TestSharedDirConflictingPuts(t *testing.T) {
	for round := 0; round < 50; round++ {
		inputs := make([][]byte, 8)
		for i := range inputs {
			inputs[i] = record(fmt.Sprint("writer ", i))
		}
		s, errs := racePuts(t, inputs)
		winner := -1
		for i, err := range errs {
			switch {
			case err == nil && winner < 0:
				winner = i
			case err == nil:
				t.Fatalf("round %d: puts %d and %d both committed", round, winner, i)
			case !errors.Is(err, ErrConflict):
				t.Fatalf("round %d: losing put %d: %v, want ErrConflict", round, i, err)
			}
		}
		if winner < 0 {
			t.Fatalf("round %d: no put committed", round)
		}
		if got := mustGet(t, s, "x.rec"); !bytes.Equal(got, inputs[winner]) {
			t.Fatalf("round %d: committed %q, but put %d won", round, got, winner)
		}
	}
}

// TestStreamedCommitNeverReplaces: a streamed put whose name exists
// reports it and leaves the committed file alone, corrupt or not.
func TestStreamedCommitNeverReplaces(t *testing.T) {
	s := openStore(t, t.TempDir())
	commit := func(data string) bool {
		t.Helper()
		tmp, err := s.Create()
		if err != nil {
			t.Fatal(err)
		}
		defer tmp.Discard()
		if _, err := tmp.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		existed, err := tmp.Commit("x.rec")
		if err != nil {
			t.Fatal(err)
		}
		return existed
	}
	if commit("first") {
		t.Error("first commit reported an existing file")
	}
	if !commit("second") {
		t.Error("second commit did not report the existing file")
	}
	if b, _ := os.ReadFile(filepath.Join(s.Dir(), "x.rec")); string(b) != "first" {
		t.Errorf("streamed commit replaced the committed file with %q", b)
	}
}
