package lru

import (
	"fmt"
	"slices"
	"testing"
)

// way is one slot's key and stamp, as a case states them.
type way struct{ key, stamp uint64 }

// TestSets pins the replacement rule every LRU structure relies on:
// the L1I, the timing levels, the BTB and the table-based prefetchers.
// Each case starts a two-set, four-way store with set 1 holding the
// given ways (tick at the largest stamp), runs its steps against set 1,
// and checks set 1 afterwards; set 0 must stay empty.
func TestSets(t *testing.T) {
	const (
		find = iota
		lookup
		ensure
	)
	type step struct {
		op        int
		key       uint64
		wantSlot  int // absolute slot; set 1 is slots 4..7
		wantFresh bool
	}
	cases := []struct {
		name  string
		set   [4]way
		steps []step
		want  [4]way
	}{
		{
			name:  "the first empty way is chosen before any valid way",
			set:   [4]way{{1, 5}, {}, {2, 1}, {}},
			steps: []step{{ensure, 9, 5, true}},
			want:  [4]way{{1, 5}, {9, 6}, {2, 1}, {}},
		},
		{
			name:  "a full set replaces its first least-recent way",
			set:   [4]way{{1, 5}, {2, 3}, {3, 3}, {4, 9}},
			steps: []step{{ensure, 7, 5, true}},
			want:  [4]way{{1, 5}, {7, 10}, {3, 3}, {4, 9}},
		},
		{
			name:  "lookup refreshes recency, moving the victim",
			set:   [4]way{{1, 5}, {2, 3}, {3, 4}, {4, 9}},
			steps: []step{{lookup, 2, 5, false}, {ensure, 7, 6, true}},
			want:  [4]way{{1, 5}, {2, 10}, {7, 11}, {4, 9}},
		},
		{
			name:  "find neither refreshes recency nor moves the victim",
			set:   [4]way{{1, 5}, {2, 3}, {3, 4}, {4, 9}},
			steps: []step{{find, 2, 5, false}, {ensure, 7, 5, true}},
			want:  [4]way{{1, 5}, {7, 10}, {3, 4}, {4, 9}},
		},
		{
			name:  "a lookup miss leaves the set alone",
			set:   [4]way{{1, 5}, {2, 3}, {}, {}},
			steps: []step{{lookup, 7, -1, false}, {find, 7, -1, false}},
			want:  [4]way{{1, 5}, {2, 3}, {}, {}},
		},
		{
			name:  "ensure on a hit neither replaces the slot nor reports it fresh",
			set:   [4]way{{1, 5}, {2, 3}, {3, 4}, {4, 9}},
			steps: []step{{ensure, 2, 5, false}},
			want:  [4]way{{1, 5}, {2, 10}, {3, 4}, {4, 9}},
		},
		{
			name:  "key 0 never matches an empty way",
			set:   [4]way{{1, 5}, {}, {}, {}},
			steps: []step{{find, 0, -1, false}, {lookup, 0, -1, false}, {ensure, 0, 5, true}, {lookup, 0, 5, false}},
			want:  [4]way{{1, 5}, {0, 7}, {}, {}},
		},
		{
			// The L1I can hold a line twice (see the Sets comment).
			name: "two copies of a key: lookups take the first, eviction the older",
			set:  [4]way{{3, 4}, {1, 6}, {3, 2}, {2, 5}},
			steps: []step{
				{find, 3, 4, false}, {lookup, 3, 4, false},
				{ensure, 9, 6, true}, {find, 3, 4, false},
			},
			want: [4]way{{3, 7}, {1, 6}, {9, 8}, {2, 5}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(2, 4)
			for i, w := range c.set {
				s.keys[4+i], s.stamps[4+i] = w.key, w.stamp
				s.tick = max(s.tick, w.stamp)
			}
			for i, st := range c.steps {
				var slot int
				var fresh bool
				switch st.op {
				case find:
					slot = s.Find(1, st.key)
				case lookup:
					slot = s.Lookup(1, st.key)
				case ensure:
					slot, fresh, _ = s.Ensure(1, st.key)
				}
				if slot != st.wantSlot || fresh != st.wantFresh {
					t.Errorf("step %d (op %d, key %d): slot %d fresh %v, want %d %v", i, st.op, st.key, slot, fresh, st.wantSlot, st.wantFresh)
				}
			}
			if got := ways(s, 4, 8); !slices.Equal(got, c.want[:]) {
				t.Errorf("set 1 = %v, want %v", got, c.want)
			}
			if got := ways(s, 0, 4); !slices.Equal(got, make([]way, 4)) {
				t.Errorf("set 0 = %v, want it empty", got)
			}
			for i := range s.Len() {
				if s.Valid(i) != (s.stamps[i] != 0) || s.Key(i) != s.keys[i] {
					t.Errorf("slot %d: Valid %v Key %d disagree with stamp %d key %d", i, s.Valid(i), s.Key(i), s.stamps[i], s.keys[i])
				}
			}
		})
	}

	t.Run("a set count that is not a power of two selects by modulo", func(t *testing.T) {
		s := New(3, 1)
		if slot, _, _ := s.Ensure(7, 1); slot != 1 {
			t.Errorf("h=7 over 3 sets: slot %d, want 1", slot)
		}
	})
	for _, shape := range [][2]int{{0, 4}, {2, 0}} {
		t.Run(fmt.Sprintf("New(%d, %d) panics", shape[0], shape[1]), func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			New(shape[0], shape[1])
		})
	}
}

// ways returns slots [from, to) as key/stamp pairs.
func ways(s *Sets, from, to int) []way {
	var w []way
	for i := from; i < to; i++ {
		w = append(w, way{s.keys[i], s.stamps[i]})
	}
	return w
}

// scanSets is the hint-free reference for Sets: every lookup is a
// first-match scan over the set's ways.
type scanSets struct {
	sets, ways   int
	keys, stamps []uint64
	tick         uint64
}

func (r *scanSets) find(h, key uint64) int {
	b := int(h%uint64(r.sets)) * r.ways
	for i := b; i < b+r.ways; i++ {
		if r.keys[i] == key && r.stamps[i] != 0 {
			return i
		}
	}
	return -1
}

func (r *scanSets) victim(h uint64) int {
	b := int(h%uint64(r.sets)) * r.ways
	v := b
	for i := b; i < b+r.ways; i++ {
		if r.stamps[i] == 0 {
			return i
		}
		if r.stamps[i] < r.stamps[v] {
			v = i
		}
	}
	return v
}

func (r *scanSets) touch(i int) {
	r.tick++
	r.stamps[i] = r.tick
}

// FuzzSetsMatchesScan applies random Find, Lookup, Ensure, Victim and
// Install sequences to Sets and to the hint-free reference, and checks
// every returned slot and the whole store after each step. Installs
// may write a resident key into another way, earlier ones included, as
// the L1I can; the hint must still return the first copy.
func FuzzSetsMatchesScan(f *testing.F) {
	// One set of four ways: fill keys 1 and 2, hit 2 (hint on way 1),
	// write 2 into way 0, then look 2 up; way 0 must win.
	f.Add([]byte{3 << 2, 2, 0, 1, 2, 0, 2, 1, 0, 2, 5, 0, 2, 0, 0, 2, 1, 0, 2})
	// One set of two ways: keys 2 and 1, hint on 1's way; write 2 over
	// it, then look 2 up; way 0 must win.
	f.Add([]byte{1 << 2, 2, 0, 2, 2, 0, 1, 1, 0, 1, 5, 0, 2 | 1<<3, 0, 0, 2})
	// Two sets of two ways: duplicates through Victim+Install.
	f.Add([]byte{1 | 1<<2, 2, 1, 3, 2, 1, 4, 1, 1, 3, 4, 1, 4, 0, 1, 4, 1, 1, 4, 2, 1, 4})
	f.Add([]byte{2 | 4<<2, 2, 5, 0, 5, 5, 7<<3 | 0, 0, 5, 0, 2, 5, 1, 3, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sets, ways := 1+int(data[0]%3), 1+int(data[0]>>2)%5
		s := New(sets, ways)
		ref := &scanSets{sets: sets, ways: ways, keys: make([]uint64, sets*ways), stamps: make([]uint64, sets*ways)}
		for step, ops := 0, data[1:]; len(ops) >= 3; step, ops = step+1, ops[3:] {
			kind, h, arg := ops[0]%6, uint64(ops[1]), ops[2]
			key := uint64(arg % 8)
			var got, want int
			switch kind {
			case 0:
				got, want = s.Find(h, key), ref.find(h, key)
			case 1:
				got, want = s.Lookup(h, key), ref.find(h, key)
				if want >= 0 {
					ref.touch(want)
				}
			case 2:
				var fresh, evicted bool
				got, fresh, evicted = s.Ensure(h, key)
				want = ref.find(h, key)
				wantFresh, wantEvicted := want < 0, false
				if wantFresh {
					want = ref.victim(h)
					wantEvicted = ref.stamps[want] != 0
					ref.keys[want] = key
				}
				ref.touch(want)
				if fresh != wantFresh || evicted != wantEvicted {
					t.Fatalf("step %d: Ensure(%d, %d) fresh %v evicted %v, want %v %v", step, h, key, fresh, evicted, wantFresh, wantEvicted)
				}
			case 3:
				got, want = s.Victim(h), ref.victim(h)
			case 4, 5:
				// 4 installs into the victim way, as every user does;
				// 5 into any way of the set.
				want = ref.victim(h)
				if kind == 5 {
					want = int(h%uint64(sets))*ways + int(arg>>3)%ways
				}
				got = want
				s.Install(want, key)
				ref.keys[want] = key
				ref.touch(want)
			}
			if got != want {
				t.Fatalf("step %d: op %d (h %d, key %d) returned slot %d, want %d", step, kind, h, key, got, want)
			}
			if !slices.Equal(s.keys, ref.keys) || !slices.Equal(s.stamps, ref.stamps) {
				t.Fatalf("step %d: store %v/%v, want %v/%v", step, s.keys, s.stamps, ref.keys, ref.stamps)
			}
		}
	})
}
