package cache

import (
	"encoding/binary"
	"testing"
)

// Contains reports whether lineAddr currently has a tag in the level.
func (c *TimingCache) Contains(lineAddr uint64) bool {
	return c.tags.arr.Find(lineAddr, lineAddr) >= 0
}

// FuzzL1DTimingMatchesAccess drives one (now, addr) sequence two ways:
// through TimingCache.Access, and through a Tags tag step followed by
// a timing stage's Timed, each over its own identical next levels. The
// split must return the same ready cycle for every access and leave
// the same counters at every level. The fuzz input is read 3 bytes per
// access: a cycle step and a line address drawn from a few dozen lines
// over few sets, so hits, in-flight merges and evictions all occur.
func FuzzL1DTimingMatchesAccess(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 2, 0, 1, 1, 0, 9, 3, 0, 0, 65, 0})
	f.Add([]byte{255, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0})
	f.Add(binary.LittleEndian.AppendUint64(nil, 0x0123456789abcdef))
	f.Fuzz(func(t *testing.T, data []byte) {
		shapes := []TimingConfig{
			{Sets: 4, Ways: 3, Latency: 5},
			{Sets: 3, Ways: 2, Latency: 5, ServiceInterval: 1},
		}
		for _, cfg := range shapes {
			hier := func() (*TimingCache, *DRAM) {
				d := NewDRAM(DRAMConfig{Latency: 40, ServiceInterval: 3, JitterMask: 0xF})
				return NewTimingCache(TimingConfig{Sets: 2, Ways: 2, Latency: 9, ServiceInterval: 1}, d), d
			}
			l2a, da := hier()
			l2b, db := hier()
			whole := NewTimingCache(cfg, l2a)
			tags := NewTags(cfg)
			stage := NewTimingStage(cfg, l2b)

			var now uint64
			for i := 0; i+3 <= len(data); i += 3 {
				now += uint64(data[i] % 16)
				addr := uint64(data[i+1]%48) | uint64(data[i+2]&1)<<40
				want := whole.Access(now, addr, false)
				tag := tags.Ensure(addr)
				if tag.Way < 0 || tag.Way >= cfg.Ways {
					t.Fatalf("%+v: access %d: way %d out of range", cfg, i/3, tag.Way)
				}
				if got := stage.Timed(now, addr, tag); got != want {
					t.Fatalf("%+v: access %d to %#x at %d: Timed ready %d, Access ready %d", cfg, i/3, addr, now, got, want)
				}
			}
			if *whole.Stats() != *stage.Stats() || *l2a.Stats() != *l2b.Stats() || da.Reads != db.Reads {
				t.Fatalf("%+v: counters differ:\nAccess: %+v\n        L2 %+v, %d DRAM reads\nsplit:  %+v\n        L2 %+v, %d DRAM reads",
					cfg, *whole.Stats(), *l2a.Stats(), da.Reads, *stage.Stats(), *l2b.Stats(), db.Reads)
			}
		}
	})
}

// TestTimingStageHasNoTags: a timing stage runs only the timing step;
// the tag step it lacks is not silently skipped.
func TestTimingStageHasNoTags(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Access on a timing stage did not panic")
		}
	}()
	NewTimingStage(TimingConfig{Sets: 2, Ways: 2}, &fixedLevel{}).Access(0, 1, false)
}
