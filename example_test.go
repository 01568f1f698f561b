package zcache_test

import (
	"fmt"

	"zcache"
)

// The zcache headline: more replacement candidates with the same ways.
func Example() {
	c, err := zcache.New(zcache.Config{
		CapacityBytes: 1 << 20,
		LineBytes:     64,
		Ways:          4,
		Design:        zcache.DesignZCache,
		WalkLevels:    3,
		Policy:        zcache.PolicyLRU,
		Seed:          42,
	})
	if err != nil {
		panic(err)
	}
	c.Access(0x1000, false)
	c.Access(0x1000, false)
	st := c.Stats()
	fmt.Printf("candidates per eviction: %d\n", zcache.ReplacementCandidates(4, 3))
	fmt.Printf("accesses=%d hits=%d misses=%d\n", st.Accesses, st.Hits, st.Misses)
	// Output:
	// candidates per eviction: 52
	// accesses=2 hits=1 misses=1
}

// ReplacementCandidates is the §III-B figure of merit R = W·Σ(W−1)^l.
func ExampleReplacementCandidates() {
	for _, levels := range []int{1, 2, 3} {
		fmt.Printf("Z4/%d\n", zcache.ReplacementCandidates(4, levels))
	}
	// Output:
	// Z4/4
	// Z4/16
	// Z4/52
}

// WalkLevelsFor inverts R: how deep must a 4-way zcache walk for 32-way
// class associativity?
func ExampleWalkLevelsFor() {
	levels, candidates := zcache.WalkLevelsFor(4, 32)
	fmt.Printf("levels=%d candidates=%d\n", levels, candidates)
	// Output:
	// levels=3 candidates=52
}

// UniformDistribution is the Fig. 2 analytical associativity CDF.
func ExampleUniformDistribution() {
	d := zcache.UniformDistribution(16, 100)
	fmt.Printf("P(e<=0.40) = %.1e\n", d.CDF[39])
	// Output:
	// P(e<=0.40) = 4.3e-07
}

// Instrument measures a live cache's associativity distribution (§IV).
func ExampleInstrument() {
	const blocks = 4096
	pol, _ := zcache.PolicyLRU.New(blocks, 1)
	m, _ := zcache.Instrument(pol, blocks, 100)
	c, _ := zcache.NewWithPolicy(zcache.Config{
		CapacityBytes: blocks * 64, LineBytes: 64, Ways: 4,
		Design: zcache.DesignZCache, WalkLevels: 2, Seed: 7,
	}, m)
	gen, _ := zcache.NewZipfGenerator(0, blocks*64*2, 64, 0.6, 0, 0.2, 3)
	for i := 0; i < 600000; i++ {
		a, _ := gen.Next()
		c.Access(a.Addr, a.Write)
	}
	d := m.Measured("Z4/16")
	ks, _ := zcache.KSDistance(d, zcache.UniformDistribution(16, 100))
	fmt.Printf("close to x^16: %v\n", ks < 0.1)
	// Output:
	// close to x^16: true
}

// SetWalkBudget is the §VIII software-controlled associativity hook.
func ExampleSetWalkBudget() {
	c, _ := zcache.New(zcache.Config{
		CapacityBytes: 1 << 18, LineBytes: 64, Ways: 4,
		Design: zcache.DesignZCache, WalkLevels: 3,
		Policy: zcache.PolicyLRU, Seed: 1,
	})
	fmt.Println(zcache.WalkBudget(c))
	_ = zcache.SetWalkBudget(c, 16)
	fmt.Println(zcache.WalkBudget(c))
	// Output:
	// 52
	// 16
}

// AnnotateNextUse prepares a trace for Belady's OPT (§VI-B).
func ExampleAnnotateNextUse() {
	accs := []zcache.Access{{Addr: 0}, {Addr: 64}, {Addr: 0}}
	next, _ := zcache.AnnotateNextUse(accs, 64)
	fmt.Println(next[0], next[1] == zcache.NoNextUse)
	// Output:
	// 2 true
}
