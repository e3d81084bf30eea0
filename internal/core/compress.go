// Package core implements the paper's contribution: the cost-effective
// Entangling instruction prefetcher (§II-III).
//
// The prefetcher entangles a destination cache line (one that missed)
// with a source line (one accessed at least miss-latency cycles
// earlier), so that the next access to the source triggers a timely
// prefetch of the destination. The implementation here follows the
// cost-effective design of §III: basic-block compaction, a 16-entry
// history buffer with 20-bit wrapping timestamps, a set-associative
// Entangled table with 10-bit tags and mode-compressed destination
// arrays (Table I for virtual addresses, Table II for physical), 2-bit
// confidence per destination, spatio-temporal basic-block merging, a
// second-source fallback, and enhanced-FIFO replacement.
package core

import "math/bits"

// AddressSpace selects the destination compression geometry.
type AddressSpace int

// Address spaces (§III-C4).
const (
	// Virtual: 64-bit virtual addresses, 58-bit line addresses; the
	// destination array spends 63 bits = 3-bit mode + 60 payload bits
	// (Table I).
	Virtual AddressSpace = iota
	// Physical: 48-bit physical addresses, 42-bit line addresses; the
	// destination array spends 46 bits = 2-bit mode + 44 payload bits
	// (Table II).
	Physical
)

// confBits is the per-destination confidence counter width.
const confBits = 2

// maxConf is the saturating maximum of the 2-bit counter.
const maxConf = 3

// geometry describes one address space's compression table.
type geometry struct {
	// modeBits is the width of the mode field.
	modeBits int
	// payloadBits is the destination-array payload width.
	payloadBits int
	// lineBits is the line-address width (mode 1 stores it fully).
	lineBits int
	// sigBits[k] is the per-destination significant-bit count in mode
	// k+1 (k destinations -> payload/k - confBits, with mode 1 storing
	// the full line address).
	sigBits []int
}

var geometries = map[AddressSpace]geometry{
	// Table I: 3 + 60 bits. Modes 1..6 store 1..6 destinations with
	// 58, 28, 18, 13, 10, 8 significant bits each (plus 2-bit
	// confidence); 60/k - 2 = those values exactly.
	Virtual: {modeBits: 3, payloadBits: 60, lineBits: 58, sigBits: []int{58, 28, 18, 13, 10, 8}},
	// Table II: 2 + 44 bits. Modes 1..4 store 1..4 destinations with
	// 42, 20, 12, 9 significant bits each.
	Physical: {modeBits: 2, payloadBits: 44, lineBits: 42, sigBits: []int{42, 20, 12, 9}},
}

// SigBits returns the per-destination significant-bit budget of the
// given mode (1-based).
func SigBits(space AddressSpace, mode int) int {
	g := geometries[space]
	if mode < 1 || mode > len(g.sigBits) {
		panic("core: mode out of range")
	}
	return g.sigBits[mode-1]
}

// DstArrayBits returns the total destination-array width (mode field +
// payload), 63 bits virtual / 46 bits physical.
func DstArrayBits(space AddressSpace) int {
	g := geometries[space]
	return g.modeBits + g.payloadBits
}

// LineBits returns the line-address width of the space.
func LineBits(space AddressSpace) int { return geometries[space].lineBits }

// neededBits returns how many low-order bits of dst must be stored so
// it can be reconstructed from src: the position of the most
// significant differing bit plus one. Equal addresses need 1 bit.
func neededBits(space AddressSpace, src, dst uint64) int {
	g := geometries[space]
	mask := lineMask(space)
	diff := (src ^ dst) & mask
	if diff == 0 {
		return 1
	}
	n := bits.Len64(diff)
	if n > g.lineBits {
		n = g.lineBits
	}
	return n
}

// lineMask masks a line address to the space's width.
func lineMask(space AddressSpace) uint64 {
	return uint64(1)<<geometries[space].lineBits - 1
}

// modeFor returns the largest mode (most destinations) whose
// significant-bit budget covers `need` bits. Mode 1 always works
// because it stores the full line address.
func modeFor(space AddressSpace, need int) int {
	g := geometries[space]
	for k := len(g.sigBits); k >= 1; k-- {
		if g.sigBits[k-1] >= need {
			return k
		}
	}
	return 1
}

// compressDst returns the stored significant bits of dst for a mode.
func compressDst(space AddressSpace, mode int, dst uint64) uint64 {
	sb := SigBits(space, mode)
	return dst & (uint64(1)<<sb - 1)
}

// decompressDst reconstructs a destination line address from the
// accessing source line address and the stored significant bits: the
// high bits come from the source (§III-B3 "the most significant bits
// can be inferred from the source").
func decompressDst(space AddressSpace, mode int, src, sig uint64) uint64 {
	sb := SigBits(space, mode)
	mask := uint64(1)<<sb - 1
	return (src&lineMask(space))&^mask | sig&mask
}
