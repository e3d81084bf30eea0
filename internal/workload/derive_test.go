package workload

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

// blob is a Derived of a given size.
type blob uint64

func (b blob) Bytes() uint64 { return uint64(b) }

// TestDeriveBuildsOncePerKey: concurrent Derives of one key run one
// build and all get its value; another key builds separately; a failed
// build is remembered, not retried.
func TestDeriveBuildsOncePerKey(t *testing.T) {
	tr, err := Materialize(testSpec(t), 1000)
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ physical bool }
	var builds atomic.Int32
	release := make(chan struct{})
	build := func(v blob) func() (Derived, error) {
		return func() (Derived, error) {
			builds.Add(1)
			<-release
			return v, nil
		}
	}
	var wg sync.WaitGroup
	got := make([]Derived, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = tr.Derive(key{false}, build(100))
		}()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent Derives ran %d builds, want 1", len(got), n)
	}
	for i, v := range got {
		if v != blob(100) {
			t.Fatalf("Derive %d got %v, want the build's value", i, v)
		}
	}

	if v, _ := tr.Derive(key{true}, build(50)); v != blob(50) || builds.Load() != 2 {
		t.Fatalf("a second key got %v after %d builds, want its own build", v, builds.Load())
	}
	if want := tr.Packed.Bytes() + 150; tr.Bytes() != want {
		t.Errorf("trace holds %d bytes, want %d (packed stream + both values)", tr.Bytes(), want)
	}

	boom := errors.New("boom")
	fail := func() (Derived, error) { builds.Add(1); return nil, boom }
	for range 2 {
		if _, err := tr.Derive("failing", fail); !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the build's error", err)
		}
	}
	if builds.Load() != 3 {
		t.Errorf("a failed build ran again: %d builds", builds.Load())
	}
}

// TestDerivePanicReleasesWaiters: a build that panics still completes
// its entry, so no Derive of the key blocks forever.
func TestDerivePanicReleasesWaiters(t *testing.T) {
	tr, err := Materialize(testSpec(t), 100)
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() { _ = recover() }()
		_, _ = tr.Derive(1, func() (Derived, error) { panic("build") })
	}()
	if _, err := tr.Derive(1, func() (Derived, error) { return blob(1), nil }); !errors.Is(err, errDeriveAborted) {
		t.Fatalf("err = %v, want errDeriveAborted", err)
	}
}

// TestDerivedBytesFollowTheTrace: derived values count in the cache's
// resident bytes once built, and the last Release evicts them with the
// trace, so the next Get starts from a trace without them.
func TestDerivedBytesFollowTheTrace(t *testing.T) {
	spec := testSpec(t)
	c := NewTraceCache()
	c.Reserve(spec, 1000, 1)
	tr, err := c.Get(spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	packed := c.ResidentBytes()
	if _, err := tr.Derive("k", func() (Derived, error) { return blob(4096), nil }); err != nil {
		t.Fatal(err)
	}
	if got := c.ResidentBytes(); got != packed+4096 {
		t.Fatalf("ResidentBytes = %d, want %d + 4096", got, packed)
	}
	c.Release(spec, 1000)
	if got := c.ResidentBytes(); got != 0 {
		t.Fatalf("ResidentBytes after the last Release = %d, want 0", got)
	}
	c.Reserve(spec, 1000, 1)
	defer c.Release(spec, 1000)
	again, err := c.Get(spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if again == tr || again.Bytes() != packed {
		t.Errorf("the rebuilt trace still carries the evicted one's derived values")
	}
}

// TestPinnedTraceDropsDerivedOnLastRelease: a pinned trace outlives
// every Release, but its derived values go with the last reserved use,
// and the next use builds them again.
func TestPinnedTraceDropsDerivedOnLastRelease(t *testing.T) {
	spec := testSpec(t)
	c := NewTraceCache()
	tr, err := c.Pin(spec, 1000)
	if err != nil {
		t.Fatal(err)
	}
	packed := c.ResidentBytes()
	builds := 0
	build := func() (Derived, error) { builds++; return blob(4096), nil }
	c.Reserve(spec, 1000, 2)
	for range 2 {
		if _, err := tr.Derive("k", build); err != nil {
			t.Fatal(err)
		}
	}
	c.Release(spec, 1000)
	if got := c.ResidentBytes(); got != packed+4096 || builds != 1 {
		t.Fatalf("with a use pending: ResidentBytes = %d after %d builds, want %d after 1", got, builds, packed+4096)
	}
	c.Release(spec, 1000)
	if got := c.ResidentBytes(); got != packed {
		t.Fatalf("after the last Release: ResidentBytes = %d, want the packed %d", got, packed)
	}
	if again, err := c.Get(spec, 1000); err != nil || again != tr {
		t.Fatalf("the pinned trace was evicted (err %v)", err)
	}
	if _, err := tr.Derive("k", build); err != nil || builds != 2 {
		t.Fatalf("Derive after the drop ran %d builds (err %v), want a second", builds, err)
	}
}
