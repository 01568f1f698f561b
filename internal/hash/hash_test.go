package hash

import (
	"math"
	"testing"
	"testing/quick"
)

func TestCheckBuckets(t *testing.T) {
	for _, b := range []uint64{1, 2, 4, 1024, 1 << 40} {
		if err := checkBuckets(b); err != nil {
			t.Errorf("checkBuckets(%d) = %v, want nil", b, err)
		}
	}
	for _, b := range []uint64{0, 3, 6, 1000} {
		if err := checkBuckets(b); err == nil {
			t.Errorf("checkBuckets(%d) = nil, want error", b)
		}
	}
}

func TestLog2(t *testing.T) {
	cases := map[uint64]uint{1: 0, 2: 1, 4: 2, 8: 3, 1024: 10, 1 << 40: 40}
	for in, want := range cases {
		if got := log2(in); got != want {
			t.Errorf("log2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestH3Deterministic(t *testing.T) {
	a, err := NewH3(42, 4096)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewH3(42, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 1000; i++ {
		addr := Mix64(i)
		if a.Hash(addr) != b.Hash(addr) {
			t.Fatalf("same-seed H3 disagrees at addr %#x", addr)
		}
	}
}

func TestH3SeedsDiffer(t *testing.T) {
	a, _ := NewH3(1, 4096)
	b, _ := NewH3(2, 4096)
	same := 0
	const n = 4096
	for i := uint64(0); i < n; i++ {
		if a.Hash(i) == b.Hash(i) {
			same++
		}
	}
	// Two independent functions agree with probability 1/buckets; with
	// 4096 trials over 4096 buckets we expect ~1 collision, allow slack.
	if same > 32 {
		t.Errorf("differently-seeded H3 agree on %d/%d inputs; functions look identical", same, n)
	}
}

func TestH3Range(t *testing.T) {
	h, _ := NewH3(7, 512)
	f := func(addr uint64) bool { return h.Hash(addr) < 512 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestH3Linearity(t *testing.T) {
	// H3 is linear over GF(2): h(x^y) == h(x)^h(y)^h(0). With h(0)=0 for
	// the zero matrix row selection, h(x^y) == h(x)^h(y).
	h, _ := NewH3(99, 1<<14)
	if h.Hash(0) != 0 {
		t.Fatalf("H3(0) = %d, want 0 (empty row selection)", h.Hash(0))
	}
	f := func(x, y uint64) bool { return h.Hash(x^y) == h.Hash(x)^h.Hash(y) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// chiSquared returns the chi-squared statistic of observed bucket counts
// against a uniform expectation.
func chiSquared(counts []int, total int) float64 {
	exp := float64(total) / float64(len(counts))
	var x2 float64
	for _, c := range counts {
		d := float64(c) - exp
		x2 += d * d / exp
	}
	return x2
}

func TestH3Uniformity(t *testing.T) {
	const buckets = 256
	const n = buckets * 1000
	h, _ := NewH3(5, buckets)
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[h.Hash(uint64(i))]++
	}
	x2 := chiSquared(counts, n)
	// 255 degrees of freedom; mean 255, stddev ~22.6. 400 is ~6 sigma.
	if x2 > 400 {
		t.Errorf("H3 over sequential addresses: chi-squared = %.1f, want < 400", x2)
	}
}

func TestH3UniformityStrided(t *testing.T) {
	// The whole point of hashing the index (§II-A): strides that are
	// pathological for bit selection spread out under H3.
	const buckets = 256
	const n = buckets * 1000
	h, _ := NewH3(5, buckets)
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[h.Hash(uint64(i)*buckets)]++ // stride == bucket count
	}
	x2 := chiSquared(counts, n)
	if x2 > 400 {
		t.Errorf("H3 over strided addresses: chi-squared = %.1f, want < 400", x2)
	}
}

func TestBitSelect(t *testing.T) {
	b, err := NewBitSelect(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []uint64{0, 1, 63, 64, 65, 1 << 30} {
		if got, want := b.Hash(addr), addr%64; got != want {
			t.Errorf("bitselect(%d) = %d, want %d", addr, got, want)
		}
	}
	s, err := NewBitSelect(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Hash(0xabc); got != 0xb {
		t.Errorf("bitselect shift 4 of 0xabc = %#x, want 0xb", got)
	}
}

func TestBitSelectPathologicalStride(t *testing.T) {
	// Documents the failure mode hashing fixes: stride == buckets maps
	// everything to one bucket.
	b, _ := NewBitSelect(0, 256)
	for i := uint64(0); i < 100; i++ {
		if b.Hash(i*256) != 0 {
			t.Fatalf("strided address %d escaped bucket 0", i*256)
		}
	}
}

func TestBitSelectRejectsOverflow(t *testing.T) {
	if _, err := NewBitSelect(60, 1<<10); err == nil {
		t.Error("NewBitSelect(60, 1024) accepted a field beyond 64 bits")
	}
}

func TestSHA1HashRange(t *testing.T) {
	s, err := NewSHA1(3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	f := func(addr uint64) bool { return s.Hash(addr) < 1024 }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSHA1Uniformity(t *testing.T) {
	const buckets = 64
	const n = buckets * 500
	s, _ := NewSHA1(11, buckets)
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Hash(uint64(i))]++
	}
	x2 := chiSquared(counts, n)
	// 63 dof; mean 63, stddev ~11.2.
	if x2 > 130 {
		t.Errorf("SHA1 chi-squared = %.1f, want < 130", x2)
	}
}

func TestFamiliesProduceIndependentFuncs(t *testing.T) {
	fams := []Family{H3Family{Seed: 1}, SHA1Family{Seed: 1}}
	for _, fam := range fams {
		fns, err := fam.New(4, 1024)
		if err != nil {
			t.Fatalf("%s: %v", fam.FamilyName(), err)
		}
		if len(fns) != 4 {
			t.Fatalf("%s: got %d funcs, want 4", fam.FamilyName(), len(fns))
		}
		for i := 0; i < len(fns); i++ {
			for j := i + 1; j < len(fns); j++ {
				same := 0
				for a := uint64(0); a < 1024; a++ {
					if fns[i].Hash(a) == fns[j].Hash(a) {
						same++
					}
				}
				if same > 16 {
					t.Errorf("%s: funcs %d and %d agree on %d/1024 inputs", fam.FamilyName(), i, j, same)
				}
			}
		}
	}
}

func TestBitSelectFamilySharesFunction(t *testing.T) {
	fns, err := BitSelectFamily{}.New(3, 128)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 1000; a++ {
		if fns[0].Hash(a) != fns[1].Hash(a) || fns[1].Hash(a) != fns[2].Hash(a) {
			t.Fatal("bitselect family functions differ; they must be identical")
		}
	}
}

func TestFamilyRejectsBadArgs(t *testing.T) {
	fams := []Family{H3Family{}, SHA1Family{}, BitSelectFamily{}}
	for _, fam := range fams {
		if _, err := fam.New(0, 64); err == nil {
			t.Errorf("%s.New(0, 64) accepted zero count", fam.FamilyName())
		}
		if _, err := fam.New(2, 63); err == nil {
			t.Errorf("%s.New(2, 63) accepted non-power-of-two buckets", fam.FamilyName())
		}
	}
}

func TestMix64Avalanche(t *testing.T) {
	// Flipping one input bit should flip ~32 output bits on average.
	var totalFlips, trials int
	for i := uint64(1); i < 1000; i++ {
		base := Mix64(i)
		for bit := uint(0); bit < 64; bit += 7 {
			diff := base ^ Mix64(i^(1<<bit))
			totalFlips += popcount(diff)
			trials++
		}
	}
	mean := float64(totalFlips) / float64(trials)
	if math.Abs(mean-32) > 2 {
		t.Errorf("Mix64 avalanche mean = %.2f bits, want ~32", mean)
	}
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}

func BenchmarkH3Hash(b *testing.B) {
	h, _ := NewH3(1, 1<<14)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint64(i) * 0x9e3779b97f4a7c15)
	}
	_ = sink
}

func BenchmarkSHA1Hash(b *testing.B) {
	h, _ := NewSHA1(1, 1<<14)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= h.Hash(uint64(i))
	}
	_ = sink
}

func TestH3CoversAllRowsForContiguousRegions(t *testing.T) {
	// H3 is GF(2)-linear: a contiguous region spanning the low input bits
	// maps onto the image of the low matrix rows. The constructor forces
	// that submatrix invertible, so every bucket must be reachable from
	// any aligned region of at least `buckets` lines — for every seed.
	for seed := uint64(0); seed < 50; seed++ {
		h, err := NewH3(seed, 512)
		if err != nil {
			t.Fatal(err)
		}
		covered := make([]bool, 512)
		for line := uint64(0); line < 512; line++ {
			covered[h.Hash(line)] = true
		}
		for b, ok := range covered {
			if !ok {
				t.Fatalf("seed %d: bucket %d unreachable from a contiguous 512-line region", seed, b)
			}
		}
	}
}

// FuzzH3Consistency checks determinism and range safety across arbitrary
// seeds and addresses.
func FuzzH3Consistency(f *testing.F) {
	f.Add(uint64(1), uint64(0xdeadbeef))
	f.Add(uint64(2), uint64(0))
	f.Add(uint64(3), uint64(0xfedcba9876543210))
	f.Fuzz(func(t *testing.T, seed, addr uint64) {
		h1, err := NewH3(seed, 1024)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := NewH3(seed, 1024)
		if err != nil {
			t.Fatal(err)
		}
		v := h1.Hash(addr)
		if v >= 1024 {
			t.Fatalf("hash %d out of range", v)
		}
		if v != h2.Hash(addr) {
			t.Fatal("same seed, different hash")
		}
		// GF(2) linearity must hold for every instance.
		if h1.Hash(addr^0x5a5a) != v^h1.Hash(0x5a5a) {
			t.Fatal("linearity broken")
		}
		// The packed four-way table must agree with the per-way functions
		// at a mid-range geometry and at the last row count its lanes hold.
		for _, rows := range []uint64{1024, WaySet4MaxRows} {
			checkWaySet4(t, seed, rows, []uint64{addr, addr >> 40, addr ^ 0x5a5a})
		}
	})
}

// TestSHA1FamilyPinned pins the SHA-1 family's outputs, as an FNV-1a digest,
// over a fixed address set at 2, 4 and 8 ways: sequential lines, a 4 KiB
// stride and a multiplicative scatter across the address space. The bucket
// range is 2^40 so nearly every bit of the folded digest is covered.
func TestSHA1FamilyPinned(t *testing.T) {
	pins := map[int]uint64{2: 0xa15e7ffbc113be61, 4: 0x7afc73ed39df5e48, 8: 0x8d5b3c65e7e8043a}
	for _, ways := range []int{2, 4, 8} {
		fns, err := SHA1Family{Seed: 0x5eed}.New(ways, 1<<40)
		if err != nil {
			t.Fatal(err)
		}
		d := uint64(14695981039346656037)
		add := func(v uint64) { d = (d ^ v) * 1099511628211 }
		for i := uint64(0); i < 256; i++ {
			for _, addr := range []uint64{i, i << 12, i * 0x9e3779b97f4a7c15} {
				for _, f := range fns {
					add(f.Hash(addr))
				}
			}
		}
		if d != pins[ways] {
			t.Errorf("%d ways: digest %#x, want %#x", ways, d, pins[ways])
		}
	}
}
