package assoc

import (
	"math"
	"testing"

	"zcache/internal/cache"
	"zcache/internal/hash"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

func TestInstrumentValidation(t *testing.T) {
	pol, _ := repl.NewLRU(8)
	if _, err := Instrument(nil, 8, 0); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := Instrument(pol, 0, 0); err == nil {
		t.Error("zero blocks accepted")
	}
	m, err := Instrument(pol, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Histogram() == nil {
		t.Error("no histogram")
	}
}

func TestFullyAssociativeAlwaysEvictsPriorityOne(t *testing.T) {
	// The calibration case from §IV-A: a fully-associative cache always
	// evicts the block with e = 1.0.
	fa, _ := cache.NewFullyAssoc(32)
	pol, _ := repl.NewLRU(fa.Blocks())
	m, err := Instrument(pol, fa.Blocks(), 100)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := cache.New(fa, m, 6)
	state := uint64(4)
	for i := 0; i < 5000; i++ {
		state = hash.Mix64(state)
		c.Access((state%256)<<6, false)
	}
	h := m.Histogram()
	if h.Count() == 0 {
		t.Fatal("no evictions measured")
	}
	bins := h.Bins()
	for i := 0; i < len(bins)-1; i++ {
		if bins[i] != 0 {
			t.Fatalf("fully-associative eviction landed in bin %d (e < 1)", i)
		}
	}
	if m.Skipped() != 0 {
		t.Errorf("skipped %d evictions", m.Skipped())
	}
}

func TestRandomCandidatesMatchesUniformityAssumption(t *testing.T) {
	// §IV-B's validation experiment: the random-candidates cache must
	// reproduce F_A(x) = x^n essentially exactly.
	const blocks, n = 512, 8
	rc, _ := cache.NewRandomCandidates(blocks, n, 11)
	pol, _ := repl.NewLRU(blocks)
	m, _ := Instrument(pol, blocks, 100)
	c, _ := cache.New(rc, m, 6)
	state := uint64(9)
	for i := 0; i < 300000; i++ {
		state = hash.Mix64(state)
		c.Access((state%4096)<<6, false)
	}
	measured := m.Measured("randcand")
	analytic := Uniform(n, 100)
	d, err := KS(measured, analytic)
	if err != nil {
		t.Fatal(err)
	}
	// With ~290k evictions the empirical CDF should sit within ~0.01 of
	// the analytic curve; 0.03 gives slack without losing the claim.
	if d > 0.03 {
		t.Errorf("KS(randcand, x^%d) = %.4f, want < 0.03", n, d)
	}
}

func TestRandomCandidatesWrongNDoesNotMatch(t *testing.T) {
	// Sanity check that the previous test has teeth: the same measured
	// distribution must NOT match a different n.
	const blocks, n = 512, 8
	rc, _ := cache.NewRandomCandidates(blocks, n, 11)
	pol, _ := repl.NewLRU(blocks)
	m, _ := Instrument(pol, blocks, 100)
	c, _ := cache.New(rc, m, 6)
	state := uint64(9)
	for i := 0; i < 100000; i++ {
		state = hash.Mix64(state)
		c.Access((state%4096)<<6, false)
	}
	d, _ := KS(m.Measured("randcand"), Uniform(2*n, 100))
	if d < 0.05 {
		t.Errorf("KS against wrong n = %.4f; measurement has no discriminating power", d)
	}
}

func TestZCacheMatchesUniformityCloserThanSetAssoc(t *testing.T) {
	// The paper's central measurement (Fig. 3): on a workload with
	// locality, an (unhashed) set-associative cache deviates from the
	// uniformity assumption while a zcache with the same number of
	// candidates tracks it closely.
	const rows, ways = 1024, 4
	const blocks = rows * ways

	// Footprint 2× capacity with mild skew: an L2-like regime (the
	// paper's Fig. 3 streams are L1-filtered, so the L2 does not see raw
	// hot-loop reuse). Very miss-intensive streams re-probe the same
	// walk positions before LRU ages them, which measurably lowers the
	// effective candidate count — visible as the per-workload spread in
	// Fig. 3d and reproduced by `runlab assoc -fig 3`.
	run := func(arr cache.Array) float64 {
		pol, _ := repl.NewLRU(arr.Blocks())
		m, _ := Instrument(pol, arr.Blocks(), 100)
		c, _ := cache.New(arr, m, 6)
		gen, err := trace.NewZipf(0, uint64(blocks)*64*2, 64, 0.6, 0, 0.2, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2000000; i++ {
			a, _ := gen.Next()
			c.Access(a.Addr, a.Write)
		}
		if m.Histogram().Count() < 1000 {
			t.Fatalf("%s: only %d evictions", arr.Name(), m.Histogram().Count())
		}
		d, err := KS(m.Measured(arr.Name()), Uniform(16, 100))
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// 16-way set-associative (16 candidates), bit-selected index.
	idx, _ := hash.NewBitSelect(0, blocks/16)
	sa, _ := cache.NewSetAssoc(16, blocks/16, idx)
	saKS := run(sa)

	// 4-way zcache with 2-level walk (16 candidates).
	fns, _ := hash.H3Family{Seed: 7}.New(ways, rows)
	z, _ := cache.NewZCache(rows, fns, 2)
	zKS := run(z)

	if zKS > 0.1 {
		t.Errorf("zcache KS vs uniformity = %.4f, want < 0.1 (§IV-C)", zKS)
	}
	if zKS >= saKS {
		t.Errorf("zcache KS (%.4f) not better than set-associative KS (%.4f)", zKS, saKS)
	}
}

func TestSkewMatchesUniformity(t *testing.T) {
	// Fig. 3c: skew-associative caches closely match the uniformity
	// assumption at their candidate count (= ways).
	const rows, ways = 512, 4
	fns, _ := hash.H3Family{Seed: 3}.New(ways, rows)
	sk, _ := cache.NewSkew(rows, fns)
	pol, _ := repl.NewLRU(sk.Blocks())
	m, _ := Instrument(pol, sk.Blocks(), 100)
	c, _ := cache.New(sk, m, 6)
	gen, _ := trace.NewZipf(0, uint64(sk.Blocks())*64*6, 64, 0.7, 0, 0, 19)
	for i := 0; i < 400000; i++ {
		a, _ := gen.Next()
		c.Access(a.Addr, false)
	}
	d, err := KS(m.Measured("skew"), Uniform(ways, 100))
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.1 {
		t.Errorf("skew KS vs x^%d = %.4f, want < 0.1", ways, d)
	}
}

func TestOnMoveKeepsTreapConsistent(t *testing.T) {
	// Relocation-heavy zcache traffic with instrumentation: the treap
	// must stay exactly in sync (untracked blocks or desyncs panic or
	// show up as Skipped).
	fns, _ := hash.H3Family{Seed: 5}.New(4, 64)
	z, _ := cache.NewZCache(64, fns, 3)
	pol, _ := repl.NewLRU(z.Blocks())
	m, _ := Instrument(pol, z.Blocks(), 100)
	c, _ := cache.New(z, m, 6)
	state := uint64(31)
	for i := 0; i < 50000; i++ {
		state = hash.Mix64(state)
		c.Access((state%1024)<<6, state%5 == 0)
	}
	if m.Skipped() != 0 {
		t.Errorf("skipped %d evictions under relocation traffic", m.Skipped())
	}
	if m.Histogram().Count() == 0 {
		t.Error("no evictions measured")
	}
}

func TestInstrumentedForwardsFutureAware(t *testing.T) {
	opt, _ := repl.NewOPT(16)
	m, _ := Instrument(opt, 16, 0)
	// Must not panic: SetNextUse reaches the wrapped OPT.
	m.SetNextUse(5)
	m.OnInsert(0, 99)
	if opt.RetentionKey(0) != ^uint64(5) {
		t.Error("SetNextUse did not reach wrapped OPT")
	}
}

func TestUniformDistributionShape(t *testing.T) {
	d := Uniform(16, 100)
	if len(d.CDF) != 100 {
		t.Fatalf("bins = %d", len(d.CDF))
	}
	if math.Abs(d.CDF[99]-1) > 1e-12 {
		t.Errorf("F(1) = %g", d.CDF[99])
	}
	if d.CDF[49] > math.Pow(0.5, 16)+1e-12 {
		t.Errorf("F(0.5) = %g, want %g", d.CDF[49], math.Pow(0.5, 16))
	}
}

func TestKSValidation(t *testing.T) {
	if _, err := KS(Distribution{}, Uniform(4, 100)); err == nil {
		t.Error("empty distribution accepted")
	}
}

func BenchmarkInstrumentedEviction(b *testing.B) {
	fns, _ := hash.H3Family{Seed: 5}.New(4, 2048)
	z, _ := cache.NewZCache(2048, fns, 3)
	pol, _ := repl.NewLRU(z.Blocks())
	m, _ := Instrument(pol, z.Blocks(), 100)
	c, _ := cache.New(z, m, 6)
	for i := uint64(0); i < 8192; i++ {
		c.Access(i<<6, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access((uint64(i)+1<<20)<<6, false) // always miss: measured eviction
	}
}

func TestInstrumentedSkipsDuplicateKeysGracefully(t *testing.T) {
	// A policy that violates key uniqueness must not kill the run: the
	// instrumentation marks the block unmeasurable and counts it.
	pol, _ := repl.NewLRU(8)
	m, err := Instrument(pol, 8, 10)
	if err != nil {
		t.Fatal(err)
	}
	m.OnInsert(0, 100)
	// Force a duplicate key by re-tracking the same retention key: move
	// block 0's state to slot 1, then insert a block at slot 0 and
	// manually collide via the internal surface.
	if err := m.tree.Insert(m.keys[0] + 1); err != nil {
		t.Fatal(err)
	}
	// Simulate a pathological policy: untracked eviction.
	m.OnEvict(2) // never inserted
	if m.Skipped() == 0 {
		t.Error("eviction of an untracked slot was not counted as skipped")
	}
}

func TestMeasuredEmptyDistribution(t *testing.T) {
	pol, _ := repl.NewLRU(8)
	m, _ := Instrument(pol, 8, 10)
	d := m.Measured("empty")
	if d.CDF != nil || d.Samples != 0 {
		t.Errorf("empty measurement yielded %+v", d)
	}
	if _, err := KS(d, Uniform(4, 10)); err == nil {
		t.Error("KS accepted an empty distribution")
	}
}

func TestInstrumentedOnMoveOfUntrackedSlot(t *testing.T) {
	pol, _ := repl.NewLRU(8)
	m, _ := Instrument(pol, 8, 10)
	m.OnInsert(0, 1)
	m.live[0] = false                        // simulate an unmeasurable block
	m.OnMoves([]repl.Move{{From: 0, To: 3}}) // must not panic or mark 3 live
	if m.live[3] {
		t.Error("move of untracked block created a tracked one")
	}
}

func TestInstrumentedSelectDelegates(t *testing.T) {
	pol, _ := repl.NewLRU(8)
	m, _ := Instrument(pol, 8, 10)
	m.OnInsert(0, 1)
	m.OnInsert(1, 2)
	m.OnAccess(0, false) // 1 is now LRU
	if got := m.Select([]repl.BlockID{0, 1}); got != 1 {
		t.Errorf("Select = %d, want 1 (delegated LRU)", got)
	}
	if !(m.keys[1] < m.keys[0]) {
		t.Errorf("touch order not mirrored: block 1 keyed %d, block 0 (touched since) %d", m.keys[1], m.keys[0])
	}
	if m.Name() != pol.Name() {
		t.Error("Name not delegated")
	}
}
