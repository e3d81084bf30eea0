package prefetch

// lruTable is the set-associative tag store with LRU replacement under
// the table-based baselines (RDIP and D-JOLT's signature tables, MANA's
// region table, FNL+MMA's miss-ahead table). It holds only keys and
// recency; each prefetcher keeps its payload in a slice parallel to the
// slots and picks the set with its own hash of the key.
type lruTable struct {
	sets, ways int
	slots      []lruSlot
	tick       uint64
}

type lruSlot struct {
	key uint64
	// stamp is the tick of the last touch; 0 marks an empty way, so a
	// zero key never matches one.
	stamp uint64
}

func newLRUTable(entries, ways int) lruTable {
	sets := max(entries/ways, 1)
	return lruTable{sets: sets, ways: ways, slots: make([]lruSlot, sets*ways)}
}

// setBase returns the first slot of the set h selects.
func (t *lruTable) setBase(h uint64) int { return int(h%uint64(t.sets)) * t.ways }

// lookup returns key's slot in the set h selects, refreshing its
// recency, or -1 on a miss.
func (t *lruTable) lookup(h, key uint64) int {
	base := t.setBase(h)
	for i := base; i < base+t.ways; i++ {
		if s := &t.slots[i]; s.stamp != 0 && s.key == key {
			t.tick++
			s.stamp = t.tick
			return i
		}
	}
	return -1
}

// ensure returns key's slot, inserting it on a miss into the first
// empty way of the set, or else its first least-recent way. fresh
// reports an insertion: the caller must reset that slot's payload.
func (t *lruTable) ensure(h, key uint64) (slot int, fresh bool) {
	if i := t.lookup(h, key); i >= 0 {
		return i, false
	}
	base := t.setBase(h)
	victim := base
	for i := base; i < base+t.ways; i++ {
		if t.slots[i].stamp == 0 {
			victim = i
			break
		}
		if t.slots[i].stamp < t.slots[victim].stamp {
			victim = i
		}
	}
	t.tick++
	t.slots[victim] = lruSlot{key: key, stamp: t.tick}
	return victim, true
}
