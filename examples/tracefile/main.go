// Tracefile: capture a workload to the binary trace format, annotate it
// with next-use indices, and replay it under LRU and under Belady's OPT —
// the paper's trace-driven methodology (§VI-B) in miniature. This is the
// workflow for studying replacement/associativity questions on a fixed,
// shareable reference stream.
package main

import (
	"bytes"
	"fmt"
	"log"

	"zcache"
)

func main() {
	log.SetFlags(0)
	const (
		capacity = 256 << 10
		line     = 64
		blocks   = capacity / line
		n        = 1_000_000
	)

	// 1. Generate and materialize a trace (normally this would be a
	// captured L2-level stream; see sim.CaptureL2Stream).
	gen, err := zcache.NewZipfGenerator(0, capacity*2, line, 0.7, 2, 0.25, 21)
	if err != nil {
		log.Fatal(err)
	}
	accesses := zcache.CollectAccesses(gen, n)

	// 2. Round-trip it through the binary format.
	var buf bytes.Buffer
	if err := zcache.WriteTrace(&buf, accesses); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d accesses, %d bytes on disk\n", len(accesses), buf.Len())
	loaded, err := zcache.ReadTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Annotate next uses (one backwards pass) for OPT.
	next, err := zcache.AnnotateNextUse(loaded, line)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Replay under LRU and OPT on identical Z4/52 arrays.
	replay := func(kind zcache.PolicyKind) zcache.CacheStats {
		pol, err := kind.New(blocks, 0)
		if err != nil {
			log.Fatal(err)
		}
		c, err := zcache.NewWithPolicy(zcache.Config{
			CapacityBytes: capacity, LineBytes: line, Ways: 4,
			Design: zcache.DesignZCache, WalkLevels: 3, Seed: 9,
		}, pol)
		if err != nil {
			log.Fatal(err)
		}
		for i, a := range loaded {
			zcache.SetNextUse(pol, next[i])
			c.Access(a.Addr, a.Write)
		}
		return c.Stats()
	}
	lru := replay(zcache.PolicyLRU)
	opt := replay(zcache.PolicyOPT)
	fmt.Printf("\n%-10s %10s %10s\n", "policy", "misses", "missrate")
	fmt.Printf("%-10s %10d %10.4f\n", "lru", lru.Misses, float64(lru.Misses)/float64(lru.Accesses))
	fmt.Printf("%-10s %10d %10.4f\n", "opt", opt.Misses, float64(opt.Misses)/float64(opt.Accesses))
	fmt.Printf("\nOPT gap: %.2fx — the headroom a better-than-LRU policy could claim\n",
		float64(lru.Misses)/float64(opt.Misses))
	fmt.Println("(on this fixed stream; §VI-B runs the full Fig. 4a study this way)")
}
