// Pinning: the paper's §I motivation for high associativity. Transactional
// memory, thread-level speculation, and deterministic-replay designs pin
// blocks holding speculative state in the cache; evicting a pinned block
// forces an expensive abort or fallback. A W-way set-associative cache can
// pin at most W blocks per set — one unlucky set and the scheme falls over.
// A zcache makes the effective limit the number of replacement candidates.
//
// This example defines a pinning policy over LRU through the public Policy
// interface, pins a set of blocks, runs background traffic, and counts pin
// violations (a pinned block chosen for eviction because every candidate
// was pinned) on a set-associative cache versus a zcache of identical ways.
package main

import (
	"fmt"
	"log"

	"zcache"
)

// pinningPolicy wraps another policy: pinned blocks rank as maximally
// valuable, and Select avoids them unless every candidate is pinned (a pin
// violation — the fallback case the motivating systems must handle).
type pinningPolicy struct {
	zcache.Policy
	pinnedAddr map[uint64]bool // pinned line addresses
	pinnedSlot map[zcache.BlockID]bool
	addrOf     map[zcache.BlockID]uint64
	violations int
}

func newPinningPolicy(inner zcache.Policy) *pinningPolicy {
	return &pinningPolicy{
		Policy:     inner,
		pinnedAddr: map[uint64]bool{},
		pinnedSlot: map[zcache.BlockID]bool{},
		addrOf:     map[zcache.BlockID]uint64{},
	}
}

// Pin marks a line address as pinned (it must be brought into the cache by
// an access to take effect).
func (p *pinningPolicy) Pin(line uint64) { p.pinnedAddr[line] = true }

// OnInsert tracks whether the inserted line is pinned.
func (p *pinningPolicy) OnInsert(id zcache.BlockID, addr uint64) {
	p.Policy.OnInsert(id, addr)
	p.addrOf[id] = addr
	if p.pinnedAddr[addr] {
		p.pinnedSlot[id] = true
	}
}

// OnEvict counts violations and clears slot state.
func (p *pinningPolicy) OnEvict(id zcache.BlockID) {
	if p.pinnedSlot[id] {
		p.violations++
		delete(p.pinnedSlot, id)
	}
	delete(p.addrOf, id)
	p.Policy.OnEvict(id)
}

// OnMoves migrates pin state along a zcache relocation chain, hop by hop:
// relocating a pinned block is fine — it stays cached.
func (p *pinningPolicy) OnMoves(moves []zcache.Move) {
	p.Policy.OnMoves(moves)
	for _, m := range moves {
		if p.pinnedSlot[m.From] {
			p.pinnedSlot[m.To] = true
			delete(p.pinnedSlot, m.From)
		}
		p.addrOf[m.To] = p.addrOf[m.From]
		delete(p.addrOf, m.From)
	}
}

// Select prefers unpinned candidates, delegating the choice among them to
// the wrapped policy.
func (p *pinningPolicy) Select(cands []zcache.BlockID) int {
	unpinned := make([]zcache.BlockID, 0, len(cands))
	idx := make([]int, 0, len(cands))
	for i, id := range cands {
		if !p.pinnedSlot[id] {
			unpinned = append(unpinned, id)
			idx = append(idx, i)
		}
	}
	if len(unpinned) == 0 {
		// Every candidate is pinned: the violation is unavoidable.
		return p.Policy.Select(cands)
	}
	return idx[p.Policy.Select(unpinned)]
}

func run(design zcache.DesignKind, walkLevels int) {
	const (
		capacity = 256 << 10
		line     = 64
		ways     = 4
		pinCount = 2048 // half the cache: ~2 pinned blocks per set on average
	)
	blocks := capacity / line
	inner, err := zcache.PolicyLRU.New(blocks, 1)
	if err != nil {
		log.Fatal(err)
	}
	pol := newPinningPolicy(inner)
	cfg := zcache.Config{
		CapacityBytes: capacity, LineBytes: line, Ways: ways,
		Design: design, WalkLevels: walkLevels, Seed: 5,
	}
	c, err := zcache.NewWithPolicy(cfg, pol)
	if err != nil {
		log.Fatal(err)
	}
	// Pin a heap-scattered write set (transactions touch allocator-
	// placed objects, not one contiguous buffer) and bring it in.
	pinned := make([]uint64, pinCount)
	state := uint64(12345)
	for i := range pinned {
		state = state*6364136223846793005 + 1442695040888963407
		pinned[i] = (1 << 24) + (state>>33)&(1<<20-1)
		pol.Pin(pinned[i])
		c.Access(pinned[i]<<6, true)
	}
	// Background traffic: 4x-capacity working set hammering the cache.
	gen, err := zcache.NewZipfGenerator(0, capacity*4, line, 0.6, 0, 0.3, 9)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 2_000_000; i++ {
		a, _ := gen.Next()
		c.Access(a.Addr, a.Write)
	}
	// Survivors: pinned lines still resident.
	resident := 0
	for _, l := range pinned {
		if c.Contains(l << 6) {
			resident++
		}
	}
	fmt.Printf("%-22s pinned=%d survived=%d pin-violations=%d\n",
		cfg.Label(), pinCount, resident, pol.violations)
}

func main() {
	log.SetFlags(0)
	fmt.Println("Pinning 2048 speculative blocks in a 256KB, 4-way cache under 2M background accesses:")
	fmt.Println()
	run(zcache.DesignSetAssociative, 0)
	run(zcache.DesignSetAssociativeHashed, 0)
	run(zcache.DesignZCache, 1)
	run(zcache.DesignZCache, 2)
	run(zcache.DesignZCache, 3)
	fmt.Println()
	fmt.Println("More replacement candidates → pinned sets survive without fallbacks (§I).")
}
