package repl

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// LRU is the paper's "full LRU" for set-less caches (§III-E): a global
// counter increments on every access, each block carries the counter value
// of its last touch, and replacement selects the candidate with the lowest
// timestamp. Stamps are 32 bits, the paper's sizing; zero means the slot
// holds no block. When the counter would wrap, renumber rewrites the live
// stamps as 1..n in their current order, so every decision is the one an
// unbounded counter would make. The counter restarts at n, which the
// block-count limit keeps at most 2^31, so renumberings are at least 2^31
// touches apart.
type LRU struct {
	counter uint32
	ts      []uint32
}

// NewLRU returns a full-timestamp LRU policy for a cache of numBlocks slots.
func NewLRU(numBlocks int) (*LRU, error) {
	if err := checkBlocks("lru", numBlocks); err != nil {
		return nil, err
	}
	return &LRU{ts: make([]uint32, numBlocks)}, nil
}

// Name identifies the policy.
func (p *LRU) Name() string { return "lru" }

func (p *LRU) touch(id BlockID) {
	if p.counter == math.MaxUint32 {
		p.renumber()
	}
	p.counter++
	p.ts[id] = p.counter
}

// renumber compacts the live stamps to 1..n, keeping their order, and
// restarts the counter at n.
func (p *LRU) renumber() {
	var live []BlockID
	for id, ts := range p.ts {
		if ts != 0 {
			live = append(live, BlockID(id))
		}
	}
	slices.SortFunc(live, func(a, b BlockID) int { return cmp.Compare(p.ts[a], p.ts[b]) })
	for i, id := range live {
		p.ts[id] = uint32(i + 1)
	}
	p.counter = uint32(len(live))
}

// OnInsert stamps the inserted block as most recent.
func (p *LRU) OnInsert(id BlockID, addr uint64) { p.touch(id) }

// OnAccess stamps the block as most recent.
func (p *LRU) OnAccess(id BlockID, write bool) { p.touch(id) }

// OnEvict clears the slot.
func (p *LRU) OnEvict(id BlockID) { p.ts[id] = 0 }

// OnMoves carries the timestamp with each relocated block to its new slot.
func (p *LRU) OnMoves(moves []Move) {
	for _, m := range moves {
		p.ts[m.To], p.ts[m.From] = p.ts[m.From], 0
	}
}

// Select evicts the least recently used candidate.
func (p *LRU) Select(cands []BlockID) int {
	if len(cands) == 0 {
		return NoVictim
	}
	best, bestTS := 0, p.ts[cands[0]]
	for i := 1; i < len(cands); i++ {
		if ts := p.ts[cands[i]]; ts < bestTS {
			best, bestTS = i, ts
		}
	}
	return best
}

// BucketedLRU is the paper's area-efficient LRU (§III-E): timestamps are n
// bits and the global counter advances only once every k accesses, so a
// block rarely survives a full wraparound unevicted. Decisions compare
// wrapped ages in mod-2^n arithmetic, and the n-bit stamp is the only
// per-block state. The global order the associativity instrumentation
// measures those decisions against is the unwrapped touch order, which the
// instrumentation counts itself (package assoc).
type BucketedLRU struct {
	bits     uint
	interval uint64 // accesses per counter increment (paper: k = 5% of cache size)
	accesses uint64
	counter  uint64 // wrapped n-bit counter
	wrapped  []uint8
}

// NewBucketedLRU returns a bucketed LRU with bits-wide timestamps whose
// counter increments every interval accesses. The paper evaluates n=8 bits
// and k = 5% of the cache size.
func NewBucketedLRU(numBlocks int, bits uint, interval uint64) (*BucketedLRU, error) {
	if err := checkBlocks("bucketed-lru", numBlocks); err != nil {
		return nil, err
	}
	if bits == 0 || bits > 8 {
		return nil, fmt.Errorf("repl: bucketed-lru timestamp width must be in [1,8] bits, got %d", bits)
	}
	if interval == 0 {
		return nil, fmt.Errorf("repl: bucketed-lru interval must be positive")
	}
	return &BucketedLRU{
		bits:     bits,
		interval: interval,
		wrapped:  make([]uint8, numBlocks),
	}, nil
}

// PaperBucketedLRU returns the configuration the paper evaluates: 8-bit
// timestamps, counter increment every 5% of the cache size.
func PaperBucketedLRU(numBlocks int) (*BucketedLRU, error) {
	interval := uint64(numBlocks) / 20
	if interval == 0 {
		interval = 1
	}
	return NewBucketedLRU(numBlocks, 8, interval)
}

// Name identifies the policy.
func (p *BucketedLRU) Name() string { return fmt.Sprintf("lru-bucketed[%db,k=%d]", p.bits, p.interval) }

func (p *BucketedLRU) touch(id BlockID) {
	p.accesses++
	if p.accesses%p.interval == 0 {
		p.counter = (p.counter + 1) & ((1 << p.bits) - 1)
	}
	p.wrapped[id] = uint8(p.counter)
}

// OnInsert stamps the inserted block.
func (p *BucketedLRU) OnInsert(id BlockID, addr uint64) { p.touch(id) }

// OnAccess stamps the block.
func (p *BucketedLRU) OnAccess(id BlockID, write bool) { p.touch(id) }

// OnEvict clears the slot.
func (p *BucketedLRU) OnEvict(id BlockID) { p.wrapped[id] = 0 }

// OnMoves carries the timestamp with each relocated block to its new slot.
func (p *BucketedLRU) OnMoves(moves []Move) {
	for _, m := range moves {
		p.wrapped[m.To], p.wrapped[m.From] = p.wrapped[m.From], 0
	}
}

// Select evicts the candidate with the greatest wrapped age, computed in
// mod-2^n arithmetic against the current counter (§III-E).
func (p *BucketedLRU) Select(cands []BlockID) int {
	if len(cands) == 0 {
		return NoVictim
	}
	mask := uint64(1<<p.bits) - 1
	best, bestAge := 0, uint64(0)
	for i, id := range cands {
		age := (p.counter - uint64(p.wrapped[id])) & mask
		if i == 0 || age > bestAge {
			best, bestAge = i, age
		}
	}
	return best
}
