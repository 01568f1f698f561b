// Kernel tests: the access hot path must stay allocation-free in steady
// state, the flat fast path must be indistinguishable from the generic
// candidate/select/install path, and the batched drive must replay the
// per-access drive bit-identically.
package cache

import (
	"math"
	"testing"
	"unsafe"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// kernelAddrs returns a deterministic pseudo-random address stream over
// footprint bytes, 64-byte aligned, with every eighth access a write.
func kernelAddrs(n int, footprint uint64) ([]uint64, []bool) {
	addrs := make([]uint64, n)
	writes := make([]bool, n)
	for i := range addrs {
		addrs[i], writes[i] = kernelAddr(i, footprint)
	}
	return addrs, writes
}

// kernelAddr is access i of kernelAddrs's stream.
func kernelAddr(i int, footprint uint64) (uint64, bool) {
	return (hash.Mix64(uint64(i)+1) % footprint) &^ 63, i&7 == 0
}

func newKernelZCache(t testing.TB, rows uint64, levels int) *Cache {
	t.Helper()
	return newKernelZCacheWays(t, 4, rows, levels)
}

func newKernelZCacheWays(t testing.TB, ways int, rows uint64, levels int) *Cache {
	t.Helper()
	fns := make([]hash.Func, ways)
	for w := range fns {
		h, err := hash.NewH3(uint64(w)+1, rows)
		if err != nil {
			t.Fatal(err)
		}
		fns[w] = h
	}
	z, err := NewZCache(rows, fns, levels)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := repl.NewLRU(z.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(z, pol, 6)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// newKernelHybrid is the Z4/16 kernel geometry with the §III-D hybrid walk
// on: a phase-1 victim plus one ExpandFrom level.
func newKernelHybrid(t testing.TB) *Cache {
	t.Helper()
	c := newKernelZCache(t, 2048, 2)
	if err := c.EnableHybridWalk(1); err != nil {
		t.Fatal(err)
	}
	return c
}

func newKernelSetAssoc(t testing.TB, ways int, sets uint64, hashed bool) *Cache {
	t.Helper()
	var idx hash.Func
	var err error
	if hashed {
		idx, err = hash.NewH3(7, sets)
	} else {
		idx, err = hash.NewBitSelect(0, sets)
	}
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSetAssoc(ways, sets, idx)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := repl.NewLRU(a.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a, pol, 6)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newKernelSkew(t testing.TB, ways int, rows uint64) *Cache {
	t.Helper()
	fns := make([]hash.Func, ways)
	for w := range fns {
		h, err := hash.NewH3(uint64(w)+11, rows)
		if err != nil {
			t.Fatal(err)
		}
		fns[w] = h
	}
	a, err := NewSkew(rows, fns)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := repl.NewLRU(a.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(a, pol, 6)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAccessSteadyStateZeroAllocs asserts the kernel property: once the
// scratch buffers are warm, Access allocates nothing — on the zcache walk
// (packed and per-way hashing, with and without the hybrid second phase) or
// on the flat set-associative and skew paths.
func TestAccessSteadyStateZeroAllocs(t *testing.T) {
	cases := []struct {
		name  string
		build func(t testing.TB) *Cache
	}{
		{"zcache", func(t testing.TB) *Cache { return newKernelZCache(t, 1024, 2) }},
		{"setassoc", func(t testing.TB) *Cache { return newKernelSetAssoc(t, 4, 1024, true) }},
		{"skew", func(t testing.TB) *Cache { return newKernelSkew(t, 4, 1024) }},
		{"zcache-hybrid", newKernelHybrid},
		{"zcache-8way", func(t testing.TB) *Cache { return newKernelZCacheWays(t, 8, 256, 2) }},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			c := cse.build(t)
			footprint := uint64(c.Array().Blocks()) * 64 * 2
			addrs, writes := kernelAddrs(1<<15, footprint)
			for i := range addrs {
				c.Access(addrs[i], writes[i])
			}
			i := 0
			allocs := testing.AllocsPerRun(2000, func() {
				c.Access(addrs[i&(len(addrs)-1)], writes[i&(len(addrs)-1)])
				i++
			})
			if allocs != 0 {
				t.Fatalf("steady-state Access allocates %.2f objects/access, want 0", allocs)
			}
		})
	}
}

// TestFlatFastPathMatchesGeneric drives the same stream through a fast-path
// controller and one forced onto the generic candidate/select/install path,
// and requires bit-identical stats, counters, and tag contents.
func TestFlatFastPathMatchesGeneric(t *testing.T) {
	cases := []struct {
		name  string
		build func(t testing.TB) *Cache
		tags  func(c *Cache) *tagStore
	}{
		{
			"setassoc-h3",
			func(t testing.TB) *Cache { return newKernelSetAssoc(t, 4, 256, true) },
			func(c *Cache) *tagStore { return &c.saFast.tags },
		},
		{
			"setassoc-bitsel",
			func(t testing.TB) *Cache { return newKernelSetAssoc(t, 4, 256, false) },
			func(c *Cache) *tagStore { return &c.saFast.tags },
		},
		{
			"skew",
			func(t testing.TB) *Cache { return newKernelSkew(t, 4, 256) },
			func(c *Cache) *tagStore { return &c.skFast.tags },
		},
	}
	for _, cse := range cases {
		t.Run(cse.name, func(t *testing.T) {
			fast := cse.build(t)
			slow := cse.build(t)
			slow.noFastPath = true
			var fastEv, slowEv []uint64
			fast.OnEviction = func(addr uint64, dirty bool) {
				fastEv = append(fastEv, addr<<1|b2u(dirty))
			}
			slow.OnEviction = func(addr uint64, dirty bool) {
				slowEv = append(slowEv, addr<<1|b2u(dirty))
			}
			footprint := uint64(fast.Array().Blocks()) * 64 * 3
			addrs, writes := kernelAddrs(1<<16, footprint)
			for i := range addrs {
				hf := fast.Access(addrs[i], writes[i])
				hs := slow.Access(addrs[i], writes[i])
				if hf != hs {
					t.Fatalf("access %d (addr %#x): fast hit=%v, generic hit=%v", i, addrs[i], hf, hs)
				}
			}
			if fast.Stats() != slow.Stats() {
				t.Fatalf("stats diverge:\nfast    %+v\ngeneric %+v", fast.Stats(), slow.Stats())
			}
			if fast.Counters() != slow.Counters() {
				t.Fatalf("counters diverge:\nfast    %+v\ngeneric %+v", fast.Counters(), slow.Counters())
			}
			ft, st := cse.tags(fast), cse.tags(slow)
			for i := range ft.e {
				if ft.e[i] != st.e[i] {
					t.Fatalf("tag slot %d diverges: fast %#x, generic %#x", i, ft.e[i], st.e[i])
				}
			}
			if len(fastEv) != len(slowEv) {
				t.Fatalf("eviction streams diverge: %d vs %d evictions", len(fastEv), len(slowEv))
			}
			for i := range fastEv {
				if fastEv[i] != slowEv[i] {
					t.Fatalf("eviction %d diverges: fast %#x, generic %#x", i, fastEv[i], slowEv[i])
				}
			}
		})
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// TestWalkRecordLayout pins the two records a walk touches per candidate.
// A tag is one 8-byte word — the line, or EmptyLine — so a visited slot costs
// one load and eight tags share a cache line, and the candidate record must
// not regrow past the 56 bytes the emit loop stores field by field.
func TestWalkRecordLayout(t *testing.T) {
	var tags tagStore
	if got := unsafe.Sizeof(tags.e[0]); got != 8 {
		t.Fatalf("a tag is %d bytes, want 8: one word, the line or EmptyLine", got)
	}
	if got := unsafe.Sizeof(Candidate{}); got != 56 {
		t.Fatalf("Candidate is %d bytes, want 56", got)
	}
}

// benchAccess is the shared kernel benchmark body: steady-state accesses over
// a pre-generated stream at ~2x capacity.
func benchAccess(b *testing.B, c *Cache) {
	footprint := uint64(c.Array().Blocks()) * 64 * 2
	addrs, writes := kernelAddrs(1<<16, footprint)
	for i := range addrs {
		c.Access(addrs[i], writes[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	mask := len(addrs) - 1
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&mask], writes[i&mask])
	}
	b.StopTimer()
	st := c.Stats()
	if st.Accesses > 0 {
		b.ReportMetric(float64(st.Misses)/float64(st.Accesses), "missrate")
	}
}

// BenchmarkKernelZCacheAccess measures steady-state ns/access on the Z4/16
// walk path (the ISSUE's zcache kernel target).
func BenchmarkKernelZCacheAccess(b *testing.B) {
	benchAccess(b, newKernelZCache(b, 2048, 2))
}

// largeRows is the large-geometry instrument's rows per way: 2^18, so a
// 4-way array's tags (8 MB dense, 32 MB as zkv's slot headers) are far past
// the host's caches and a walk's tag reads can miss.
const largeRows = 1 << 18

// BenchmarkKernelZCacheAccessLarge is BenchmarkKernelZCacheAccess at
// largeRows. The stream is hashed as it goes: a table of it would be as large
// as the array.
func BenchmarkKernelZCacheAccessLarge(b *testing.B) {
	c := newKernelZCache(b, largeRows, 2)
	footprint := uint64(c.Array().Blocks()) * 64 * 2
	warm := 2 * c.Array().Blocks()
	for i := 0; i < warm; i++ {
		c.Access(kernelAddr(i, footprint))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(kernelAddr(warm+i, footprint))
	}
}

// TestLargeGeometryWalkShape checks that the large-geometry instrument
// measures the same walk as the small one, so only the memory system
// differs: once the array has taken twice its capacity in misses, a walk at
// largeRows yields as many candidates and tag reads as at 4096 rows, and
// relocates as often. They agree up to sampling noise: the odd walk still
// ends early at one of the last empty slots.
func TestLargeGeometryWalkShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fills a 2^20-slot array")
	}
	type shape struct{ cands, reads, relocs float64 }
	measure := func(rows uint64) shape {
		c := newKernelZCache(t, rows, 2)
		z := c.zFast
		// Random 58-bit lines: every access misses. (Consecutive lines
		// would meet the H3 functions' linearity, not the walk.)
		i := uint64(0)
		for ; i < 2*uint64(z.Blocks()); i++ {
			c.Access(hash.Mix64(i)&^63, false)
		}
		walks0, levels0 := z.WalkProfile()
		relocs0 := z.Counters().Relocations
		const misses = 40000
		for end := i + misses; i < end; i++ {
			c.Access(hash.Mix64(i)&^63, false)
		}
		walks1, levels1 := z.WalkProfile()
		var s shape
		for i := range levels1 {
			s.cands += float64(levels1[i].Candidates - levels0[i].Candidates)
			s.reads += float64(levels1[i].TagReads - levels0[i].TagReads)
		}
		walks := float64(walks1 - walks0)
		s.cands, s.reads = s.cands/walks, s.reads/walks
		s.relocs = float64(z.Counters().Relocations-relocs0) / walks
		return s
	}
	small, large := measure(4096), measure(largeRows)
	t.Logf("per walk at 4096 rows %+v, at %d rows %+v", small, largeRows, large)
	if math.Abs(small.cands-large.cands) > 0.1 || math.Abs(small.reads-large.reads) > 0.1 ||
		math.Abs(small.relocs-large.relocs) > 0.02 {
		t.Fatalf("walk shape differs: %+v at 4096 rows, %+v at %d", small, large, largeRows)
	}
}

// BenchmarkKernelZCacheHybridAccess measures the hybrid BFS+DFS walk
// (§III-D): phase-1 victim plus an ExpandFrom second phase.
func BenchmarkKernelZCacheHybridAccess(b *testing.B) {
	benchAccess(b, newKernelHybrid(b))
}

// BenchmarkKernelZCache8WayAccess is the walk path on a geometry the packed
// four-lane table does not serve: eight H3 ways, hashed per way.
func BenchmarkKernelZCache8WayAccess(b *testing.B) {
	benchAccess(b, newKernelZCacheWays(b, 8, 1024, 2))
}

// BenchmarkKernelSetAssocAccess measures steady-state ns/access on the
// hashed set-associative flat path.
func BenchmarkKernelSetAssocAccess(b *testing.B) {
	benchAccess(b, newKernelSetAssoc(b, 4, 2048, true))
}

// BenchmarkKernelSkewAccess measures steady-state ns/access on the skew flat
// path.
func BenchmarkKernelSkewAccess(b *testing.B) {
	benchAccess(b, newKernelSkew(b, 4, 2048))
}
