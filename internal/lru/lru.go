// Package lru is the set-associative tag store with least-recently-used
// replacement under every LRU structure of the simulated machine: the
// L1I, the L1D/L2/LLC timing levels, the BTB and the table-based
// baseline prefetchers (MANA, RDIP, D-JOLT, FNL+MMA). The paper's
// baseline (Table III, §IV-A) uses LRU throughout; only the Entangled
// table keeps its own policy (internal/core).
package lru

// Sets is a set-associative store of keys and recency stamps. It holds
// no payload: each caller keeps its per-way data in a slice of Len()
// elements parallel to the slots, and picks a key's set with its own
// hash h.
//
// A lookup returns the first way holding the key; a hit gets a new
// recency stamp, and a miss fills the first empty way, else the first
// least-recent one. Ways are filled in place, never emptied and never
// reordered.
//
// A set may hold the same key twice. The L1I installs whatever a fill
// brings, and a fill can bring a line that is already resident: an
// Ideal-mode install can race an in-flight prefetch fill, and in timing
// mode a demand miss stalling for a free MSHR can let the prefetch
// queue issue a second fill for the same line. Find then returns the
// first copy and Victim takes whichever copy is least recent, so which
// copy a lookup returns is part of the simulated behaviour.
//
// Each set keeps a hint, the way of its last hit, which lookups try
// before scanning. Its invariant: if the hinted way holds the key
// looked up, it is that key's first copy in the set. A scan hit is the
// first copy, and Install resets the hint to way 0 (trivially a first
// copy) when it overwrites the hinted way or writes the hinted way's
// key into an earlier way, so a hinted hit is the slot the first-match
// scan would return.
type Sets struct {
	ways int
	idx  Index
	keys []uint64
	// stamps[i] is the tick of slot i's last touch; 0 marks an empty
	// way, so a zero value needs no initialization pass.
	stamps []uint64
	// hint[s] is set s's hinted way (see the type comment).
	hint []uint32
	tick uint64
}

// Index selects a set from a hash h: h & (sets-1) when the set count
// is a power of two (every shipped config), else h % sets. A caller
// that keeps per-way data for a Sets it does not hold uses the same
// Index to find the set.
type Index struct {
	sets, mask uint64
	pow2       bool
}

// NewIndex returns the Index of sets sets.
func NewIndex(sets int) Index {
	return Index{sets: uint64(sets), mask: uint64(sets - 1), pow2: sets&(sets-1) == 0}
}

// Set returns the index of the set h selects.
func (x Index) Set(h uint64) int {
	if x.pow2 {
		return int(h & x.mask)
	}
	return int(h % x.sets)
}

// New returns an empty store of sets x ways slots. It panics unless
// both are positive.
func New(sets, ways int) *Sets {
	if sets <= 0 || ways <= 0 {
		panic("lru: sets and ways must be positive")
	}
	return &Sets{
		ways:   ways,
		idx:    NewIndex(sets),
		keys:   make([]uint64, sets*ways),
		stamps: make([]uint64, sets*ways),
		hint:   make([]uint32, sets),
	}
}

// Len returns the number of slots, the length of a payload slice.
func (s *Sets) Len() int { return len(s.keys) }

// hinted returns set's hinted slot if it holds key, else -1.
func (s *Sets) hinted(set int, key uint64) int {
	i := set*s.ways + int(s.hint[set])
	// Key 0 is legal (line 0), so the stamp tells a stored 0 from an
	// empty way; it is read only after a key match.
	if s.keys[i] == key && s.stamps[i] != 0 {
		return i
	}
	return -1
}

// Find returns the slot of the first way holding key in the set h
// selects, or -1, without changing recency.
func (s *Sets) Find(h, key uint64) int {
	set := s.idx.Set(h)
	if i := s.hinted(set, key); i >= 0 {
		return i
	}
	b := set * s.ways
	for i, k := range s.keys[b : b+s.ways] {
		if k == key && s.stamps[b+i] != 0 {
			s.hint[set] = uint32(i)
			return b + i
		}
	}
	return -1
}

// Lookup is Find that also marks a hit slot most-recently used.
func (s *Sets) Lookup(h, key uint64) int {
	i := s.Find(h, key)
	if i >= 0 {
		s.touch(i)
	}
	return i
}

// Ensure returns key's slot, inserting it on a miss into the Victim
// way, in one pass over the set. fresh reports an insertion: the
// caller must reset that slot's payload. evicted reports that the
// insertion replaced a valid way.
func (s *Sets) Ensure(h, key uint64) (slot int, fresh, evicted bool) {
	set := s.idx.Set(h)
	if i := s.hinted(set, key); i >= 0 {
		s.touch(i)
		return i, false, false
	}
	b := set * s.ways
	// The victim is the first way with the smallest stamp: the first
	// empty way (stamp 0), else the first least-recent one.
	v := b
	for i, k := range s.keys[b : b+s.ways] {
		st := s.stamps[b+i]
		if k == key && st != 0 {
			s.hint[set] = uint32(i)
			s.touch(b + i)
			return b + i, false, false
		}
		if st < s.stamps[v] {
			v = b + i
		}
	}
	evicted = s.stamps[v] != 0
	s.keys[v] = key
	s.touch(v)
	// key was absent, so v now holds its only copy.
	s.hint[set] = uint32(v - b)
	return v, true, evicted
}

// Victim returns the slot a miss in the set h selects replaces: its
// first empty way, else its first least-recent way.
func (s *Sets) Victim(h uint64) int {
	b := s.idx.Set(h) * s.ways
	v := b
	for i, st := range s.stamps[b : b+s.ways] {
		if st == 0 {
			return b + i
		}
		if st < s.stamps[v] {
			v = b + i
		}
	}
	return v
}

// Install writes key into slot (as returned by Victim) and marks it
// most-recently used. key may already be resident in another way.
func (s *Sets) Install(slot int, key uint64) {
	set := slot / s.ways
	if h := set*s.ways + int(s.hint[set]); slot == h || slot < h && s.keys[h] == key {
		s.hint[set] = 0
	}
	s.keys[slot] = key
	s.touch(slot)
}

// touch marks slot most-recently used.
func (s *Sets) touch(slot int) {
	s.tick++
	s.stamps[slot] = s.tick
}

// Valid reports whether slot holds a key.
func (s *Sets) Valid(slot int) bool { return s.stamps[slot] != 0 }

// Key returns the key slot holds; meaningful only when Valid.
func (s *Sets) Key(slot int) uint64 { return s.keys[slot] }
