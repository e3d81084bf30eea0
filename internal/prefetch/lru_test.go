package prefetch

import (
	"slices"
	"testing"
)

// TestLRUTable pins the replacement rule every table-based baseline
// relies on. Each case starts a two-set, four-way table with set 1
// holding the given slots (tick at the largest stamp), runs its steps
// against set 1, and checks set 1 afterwards; set 0 must stay empty.
func TestLRUTable(t *testing.T) {
	type step struct {
		ensure    bool // ensure, else lookup
		key       uint64
		wantSlot  int // absolute slot; set 1 is slots 4..7
		wantFresh bool
	}
	cases := []struct {
		name  string
		set   [4]lruSlot
		steps []step
		want  [4]lruSlot
	}{
		{
			name:  "an empty way is chosen before any valid way, the first empty way wins",
			set:   [4]lruSlot{{1, 5}, {}, {2, 1}, {}},
			steps: []step{{true, 9, 5, true}},
			want:  [4]lruSlot{{1, 5}, {9, 6}, {2, 1}, {}},
		},
		{
			name:  "a full set replaces its first least-recent way",
			set:   [4]lruSlot{{1, 5}, {2, 3}, {3, 3}, {4, 9}},
			steps: []step{{true, 7, 5, true}},
			want:  [4]lruSlot{{1, 5}, {7, 10}, {3, 3}, {4, 9}},
		},
		{
			name:  "lookup refreshes recency, moving the victim",
			set:   [4]lruSlot{{1, 5}, {2, 3}, {3, 4}, {4, 9}},
			steps: []step{{false, 2, 5, false}, {true, 7, 6, true}},
			want:  [4]lruSlot{{1, 5}, {2, 10}, {7, 11}, {4, 9}},
		},
		{
			name:  "a lookup miss leaves the set alone",
			set:   [4]lruSlot{{1, 5}, {2, 3}, {}, {}},
			steps: []step{{false, 7, -1, false}},
			want:  [4]lruSlot{{1, 5}, {2, 3}, {}, {}},
		},
		{
			name:  "ensure on a hit neither replaces the slot nor reports it fresh",
			set:   [4]lruSlot{{1, 5}, {2, 3}, {3, 4}, {4, 9}},
			steps: []step{{true, 2, 5, false}},
			want:  [4]lruSlot{{1, 5}, {2, 10}, {3, 4}, {4, 9}},
		},
		{
			name:  "key 0 never matches an empty way",
			set:   [4]lruSlot{{1, 5}, {}, {}, {}},
			steps: []step{{false, 0, -1, false}, {true, 0, 5, true}, {false, 0, 5, false}},
			want:  [4]lruSlot{{1, 5}, {0, 7}, {}, {}},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tb := newLRUTable(8, 4)
			copy(tb.slots[4:], c.set[:])
			for _, s := range c.set {
				tb.tick = max(tb.tick, s.stamp)
			}
			for i, s := range c.steps {
				var slot int
				var fresh bool
				if s.ensure {
					slot, fresh = tb.ensure(1, s.key)
				} else {
					slot = tb.lookup(1, s.key)
				}
				if slot != s.wantSlot || fresh != s.wantFresh {
					t.Errorf("step %d (key %d): slot %d fresh %v, want %d %v", i, s.key, slot, fresh, s.wantSlot, s.wantFresh)
				}
			}
			if got := tb.slots[4:]; !slices.Equal(got, c.want[:]) {
				t.Errorf("set 1 = %v, want %v", got, c.want)
			}
			if got := tb.slots[:4]; !slices.Equal(got, make([]lruSlot, 4)) {
				t.Errorf("set 0 = %v, want it empty", got)
			}
		})
	}
}
