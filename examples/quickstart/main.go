// Quickstart: build a zcache and a same-cost set-associative cache, drive
// both with an identical skewed workload, and compare miss rates and
// replacement-process activity.
//
// This is the paper's core claim in thirty lines: with the same 4 ways
// (same hit latency, same hit energy), the zcache's 52 replacement
// candidates produce materially fewer misses.
package main

import (
	"fmt"
	"log"

	"zcache"
)

func main() {
	log.SetFlags(0)
	const (
		capacity = 1 << 20 // 1MB
		line     = 64
		ways     = 4
	)

	zCfg := zcache.Config{
		CapacityBytes: capacity,
		LineBytes:     line,
		Ways:          ways,
		Design:        zcache.DesignZCache,
		WalkLevels:    3, // R = 52 candidates per eviction
		Policy:        zcache.PolicyLRU,
		Seed:          42,
	}
	z, err := zcache.New(zCfg)
	if err != nil {
		log.Fatal(err)
	}
	saCfg := zCfg
	saCfg.Design = zcache.DesignSetAssociativeHashed // the paper's baseline
	sa, err := zcache.New(saCfg)
	if err != nil {
		log.Fatal(err)
	}

	// A skewed working set at 1.5x the cache capacity: replacement
	// quality decides who keeps the hot lines.
	gen, err := zcache.NewZipfGenerator(0, capacity*3/2, line, 0.8, 0, 0.25, 7)
	if err != nil {
		log.Fatal(err)
	}
	const accesses = 3_000_000
	for i := 0; i < accesses; i++ {
		a, _ := gen.Next()
		z.Access(a.Addr, a.Write)
	}
	gen.Reset()
	for i := 0; i < accesses; i++ {
		a, _ := gen.Next()
		sa.Access(a.Addr, a.Write)
	}

	zs, ss := z.Stats(), sa.Stats()
	fmt.Printf("workload: zipf(theta=0.8) over %.1fx cache capacity, %d accesses\n\n", 1.5, accesses)
	fmt.Printf("%-28s %12s %12s\n", "", saCfg.Label(), zCfg.Label())
	fmt.Printf("%-28s %12d %12d\n", "misses", ss.Misses, zs.Misses)
	fmt.Printf("%-28s %12.4f %12.4f\n", "miss rate", rate(ss), rate(zs))
	fmt.Printf("%-28s %12d %12d\n", "writebacks", ss.Writebacks, zs.Writebacks)

	zc := z.Counters()
	fmt.Printf("\nzcache replacement process (§III-B):\n")
	fmt.Printf("  candidates per eviction (R): %d\n", zcache.ReplacementCandidates(4, 3))
	fmt.Printf("  walk tag lookups:            %d\n", zc.WalkLookups)
	fmt.Printf("  relocations:                 %d (%.2f per eviction)\n",
		zc.Relocations, float64(zc.Relocations)/float64(zs.Evictions))
	fmt.Printf("\nmiss reduction: %.2fx with identical ways, hit latency, and hit energy\n",
		float64(ss.Misses)/float64(zs.Misses))
}

func rate(s zcache.CacheStats) float64 {
	return float64(s.Misses) / float64(s.Accesses)
}
