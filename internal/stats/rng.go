package stats

import "hash/fnv"

// SplitMix64 is the standard 64-bit finalizer mix: a bijective
// avalanche function whose output is uniformly distributed for any
// input sequence. It is the repository's primitive for deterministic,
// seed-driven decisions (fault-injection rolls and record corruption)
// — unlike math/rand it has no global state, so two computations of
// the same input always agree regardless of goroutine scheduling.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Hash64 hashes a seed and a list of string parts into a uniform
// 64-bit value. Parts are length-separated, so ("ab","c") and
// ("a","bc") hash differently.
func Hash64(seed uint64, parts ...string) uint64 {
	h := fnv.New64a()
	var sep [1]byte
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write(sep[:])
	}
	return SplitMix64(seed ^ h.Sum64())
}

// UnitFloat maps a 64-bit value to a uniform float64 in [0, 1).
func UnitFloat(x uint64) float64 {
	return float64(x>>11) / float64(uint64(1)<<53)
}
