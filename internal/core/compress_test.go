package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// maxMode returns the number of modes (= maximum destinations per
// entry) for the address space.
func maxMode(space AddressSpace) int { return len(geometries[space].sigBits) }

// BenchmarkTable01VirtualCompression exercises the Table I compression
// path (encode + decode of a destination under every virtual mode).
func BenchmarkTable01VirtualCompression(b *testing.B) {
	benchCompression(b, Virtual)
}

// BenchmarkTable02PhysicalCompression exercises the Table II
// compression path.
func BenchmarkTable02PhysicalCompression(b *testing.B) {
	benchCompression(b, Physical)
}

func benchCompression(b *testing.B, space AddressSpace) {
	rng := rand.New(rand.NewSource(1))
	srcs := make([]uint64, 1024)
	dsts := make([]uint64, 1024)
	for i := range srcs {
		srcs[i] = rng.Uint64()
		dsts[i] = srcs[i] ^ uint64(rng.Intn(1<<uint(rng.Intn(40)+1)))
	}
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		k := i % len(srcs)
		for mode := 1; mode <= maxMode(space); mode++ {
			sink += decompressDst(space, mode, srcs[k], compressDst(space, mode, dsts[k]))
		}
	}
	_ = sink
}

func TestGeometryTables(t *testing.T) {
	// Table I: 3-bit mode + 60 payload bits; modes 1..6 with
	// 58/28/18/13/10/8 significant bits (+2 confidence each).
	if DstArrayBits(Virtual) != 63 {
		t.Errorf("virtual array bits = %d, want 63", DstArrayBits(Virtual))
	}
	wantV := []int{58, 28, 18, 13, 10, 8}
	for k, want := range wantV {
		if got := SigBits(Virtual, k+1); got != want {
			t.Errorf("virtual mode %d: %d bits, want %d", k+1, got, want)
		}
		// k destinations x (sig + conf) must fit in the 60-bit payload.
		if (k+1)*(want+confBits) > 60 {
			t.Errorf("virtual mode %d overflows payload", k+1)
		}
	}
	if maxMode(Virtual) != 6 {
		t.Errorf("virtual mode count = %d", maxMode(Virtual))
	}

	// Table II: 2-bit mode + 44 payload bits; modes 1..4 with
	// 42/20/12/9 significant bits.
	if DstArrayBits(Physical) != 46 {
		t.Errorf("physical array bits = %d, want 46", DstArrayBits(Physical))
	}
	wantP := []int{42, 20, 12, 9}
	for k, want := range wantP {
		if got := SigBits(Physical, k+1); got != want {
			t.Errorf("physical mode %d: %d bits, want %d", k+1, got, want)
		}
		if (k+1)*(want+confBits) > 44 {
			t.Errorf("physical mode %d overflows payload", k+1)
		}
	}
	if maxMode(Physical) != 4 {
		t.Errorf("physical mode count = %d", maxMode(Physical))
	}
	if LineBits(Virtual) != 58 || LineBits(Physical) != 42 {
		t.Error("line bits wrong")
	}
}

func TestSigBitsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mode 0")
		}
	}()
	SigBits(Virtual, 0)
}

func TestNeededBits(t *testing.T) {
	cases := []struct {
		src, dst uint64
		want     int
	}{
		{0x1000, 0x1000, 1}, // equal
		{0x1000, 0x1001, 1}, // differ in bit 0
		{0x1000, 0x1002, 2}, // differ in bit 1
		{0x1000, 0x1100, 9}, // differ in bit 8
		{0, 1 << 57, 58},    // top line bit
	}
	for _, c := range cases {
		if got := neededBits(Virtual, c.src, c.dst); got != c.want {
			t.Errorf("neededBits(%#x,%#x) = %d, want %d", c.src, c.dst, got, c.want)
		}
	}
}

func TestModeFor(t *testing.T) {
	// Virtual: need<=8 -> mode 6; <=10 -> 5; <=13 -> 4; <=18 -> 3;
	// <=28 -> 2; else 1.
	cases := []struct{ need, want int }{
		{1, 6}, {8, 6}, {9, 5}, {10, 5}, {11, 4}, {13, 4}, {14, 3},
		{18, 3}, {19, 2}, {28, 2}, {29, 1}, {58, 1},
	}
	for _, c := range cases {
		if got := modeFor(Virtual, c.need); got != c.want {
			t.Errorf("modeFor(%d) = %d, want %d", c.need, got, c.want)
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	// Whenever mode's budget covers the src/dst difference, decompress
	// must reconstruct dst exactly.
	f := func(src, dst uint64) bool {
		for _, space := range []AddressSpace{Virtual, Physical} {
			s := src & lineMask(space)
			d := dst & lineMask(space)
			need := neededBits(space, s, d)
			for mode := 1; mode <= maxMode(space); mode++ {
				if SigBits(space, mode) < need {
					continue
				}
				sig := compressDst(space, mode, d)
				if got := decompressDst(space, mode, s, sig); got != d {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCompressNearbyAlwaysMode6(t *testing.T) {
	// Destinations within 255 lines of the source need at most 8 bits
	// when the low bytes dominate the difference; specifically, lines
	// sharing all but the low 8 bits compress to the densest mode.
	src := uint64(0x4000_00)
	for d := uint64(0); d < 256; d++ {
		dst := src&^uint64(0xFF) | d
		if neededBits(Virtual, src, dst) > 8 {
			t.Fatalf("dst %#x should need <= 8 bits", dst)
		}
	}
}

func TestDecompressUsesSourceHighBits(t *testing.T) {
	// With a *different* source, reconstruction gives a different line:
	// the aliasing cost of compression the design accepts.
	src1, dst := uint64(0x10000), uint64(0x10003)
	sig := compressDst(Virtual, 6, dst)
	src2 := uint64(0x20000)
	got := decompressDst(Virtual, 6, src2, sig)
	if got == dst {
		t.Error("reconstruction should depend on the source's high bits")
	}
	if got != 0x20003 {
		t.Errorf("got %#x, want 0x20003", got)
	}
	_ = src1
}
