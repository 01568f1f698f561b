package repl

import "fmt"

// Random evicts a deterministic pseudo-random candidate. Random replacement
// satisfies the uniformity assumption by construction (each candidate is as
// likely as any other to be evicted regardless of rank), making it a useful
// control in the associativity experiments. Several commercial last-level
// caches the paper cites ship policies of this class because set ordering is
// too expensive (§III-E).
type Random struct {
	state uint64
	seq   []uint64
	n     uint64
}

// NewRandom returns a random policy seeded deterministically.
func NewRandom(numBlocks int, seed uint64) (*Random, error) {
	if err := checkBlocks("random", numBlocks); err != nil {
		return nil, err
	}
	return &Random{state: seed | 1, seq: make([]uint64, numBlocks)}, nil
}

// Name identifies the policy.
func (p *Random) Name() string { return "random" }

func (p *Random) next() uint64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return p.state * 0x2545f4914f6cdd1d
}

// OnInsert assigns the block a fresh random rank.
func (p *Random) OnInsert(id BlockID, addr uint64) {
	p.n++
	// Unique key: random high bits, sequence low bits.
	p.seq[id] = p.next()<<20 | (p.n & ((1 << 20) - 1))
}

// OnAccess is a no-op: random replacement ignores recency.
func (p *Random) OnAccess(id BlockID, write bool) {}

// OnEvict clears the slot.
func (p *Random) OnEvict(id BlockID) { p.seq[id] = 0 }

// OnMoves carries the rank with each relocated block to its new slot.
func (p *Random) OnMoves(moves []Move) {
	for _, m := range moves {
		p.seq[m.To], p.seq[m.From] = p.seq[m.From], 0
	}
}

// Select evicts a uniformly random candidate.
func (p *Random) Select(cands []BlockID) int {
	if len(cands) == 0 {
		return NoVictim
	}
	return int(p.next() % uint64(len(cands)))
}

// RetentionKey is the block's random rank.
func (p *Random) RetentionKey(id BlockID) uint64 { return p.seq[id] }

// LFU ranks blocks by access frequency (§IV-A lists LFU as a policy with an
// inherent global order). Frequencies saturate rather than age; ties break
// by recency so keys stay unique.
type LFU struct {
	freq []uint64
	seq  uint64
	last []uint64
}

// NewLFU returns a least-frequently-used policy.
func NewLFU(numBlocks int) (*LFU, error) {
	if err := checkBlocks("lfu", numBlocks); err != nil {
		return nil, err
	}
	return &LFU{freq: make([]uint64, numBlocks), last: make([]uint64, numBlocks)}, nil
}

// Name identifies the policy.
func (p *LFU) Name() string { return "lfu" }

const lfuSeqBits = 24

func (p *LFU) touch(id BlockID) {
	if p.freq[id] < 1<<(63-lfuSeqBits)-1 {
		p.freq[id]++
	}
	p.seq++
	p.last[id] = p.seq
}

// OnInsert starts the block at frequency 1.
func (p *LFU) OnInsert(id BlockID, addr uint64) {
	p.freq[id] = 0
	p.touch(id)
}

// OnAccess bumps the block's frequency.
func (p *LFU) OnAccess(id BlockID, write bool) { p.touch(id) }

// OnEvict clears the slot.
func (p *LFU) OnEvict(id BlockID) {
	p.freq[id], p.last[id] = 0, 0
}

// OnMoves carries frequency state with each relocated block to its new slot.
func (p *LFU) OnMoves(moves []Move) {
	for _, m := range moves {
		p.freq[m.To], p.last[m.To] = p.freq[m.From], p.last[m.From]
		p.freq[m.From], p.last[m.From] = 0, 0
	}
}

// Select evicts the least frequently used candidate, computing the packed
// retention key inline to keep the scan free of dynamic dispatch.
func (p *LFU) Select(cands []BlockID) int {
	if len(cands) == 0 {
		return NoVictim
	}
	const mask = uint64(1<<lfuSeqBits - 1)
	best := 0
	bestKey := p.freq[cands[0]]<<lfuSeqBits | (p.last[cands[0]] & mask)
	for i := 1; i < len(cands); i++ {
		id := cands[i]
		if k := p.freq[id]<<lfuSeqBits | (p.last[id] & mask); k < bestKey {
			best, bestKey = i, k
		}
	}
	return best
}

// RetentionKey packs frequency above a recency tiebreak.
func (p *LFU) RetentionKey(id BlockID) uint64 {
	return p.freq[id]<<lfuSeqBits | (p.last[id] & (1<<lfuSeqBits - 1))
}

// SRRIP implements static re-reference interval prediction (Jaleel et al.,
// ISCA'10) with 2-bit RRPVs. The paper highlights RRIP as a modern
// high-performing policy that — like the zcache — needs no set ordering
// (§III-E), which makes it a natural companion policy; we include it as the
// repository's extension policy for ablations.
type SRRIP struct {
	rrpv []uint8
	max  uint8
	seq  uint64
	last []uint64
}

// NewSRRIP returns an SRRIP policy with bits-wide RRPV counters (2 in the
// original proposal).
func NewSRRIP(numBlocks int, bits uint) (*SRRIP, error) {
	if err := checkBlocks("srrip", numBlocks); err != nil {
		return nil, err
	}
	if bits == 0 || bits > 7 {
		return nil, fmt.Errorf("repl: srrip RRPV width must be in [1,7] bits, got %d", bits)
	}
	return &SRRIP{
		rrpv: make([]uint8, numBlocks),
		max:  uint8(1<<bits - 1),
		last: make([]uint64, numBlocks),
	}, nil
}

// Name identifies the policy.
func (p *SRRIP) Name() string { return fmt.Sprintf("srrip[max=%d]", p.max) }

func (p *SRRIP) stamp(id BlockID) {
	p.seq++
	p.last[id] = p.seq
}

// OnInsert predicts a long re-reference interval (RRPV = max-1).
func (p *SRRIP) OnInsert(id BlockID, addr uint64) {
	p.rrpv[id] = p.max - 1
	p.stamp(id)
}

// OnAccess promotes the block to near-immediate re-reference (RRPV = 0).
func (p *SRRIP) OnAccess(id BlockID, write bool) {
	p.rrpv[id] = 0
	p.stamp(id)
}

// OnEvict clears the slot.
func (p *SRRIP) OnEvict(id BlockID) {
	p.rrpv[id], p.last[id] = 0, 0
}

// OnMoves carries RRPV state with each relocated block to its new slot.
func (p *SRRIP) OnMoves(moves []Move) {
	for _, m := range moves {
		p.rrpv[m.To], p.last[m.To] = p.rrpv[m.From], p.last[m.From]
		p.rrpv[m.From], p.last[m.From] = 0, 0
	}
}

// Select evicts a candidate with maximal RRPV, aging all candidates until
// one reaches the maximum (the candidate-local analogue of RRIP's set scan).
func (p *SRRIP) Select(cands []BlockID) int {
	if len(cands) == 0 {
		return NoVictim
	}
	for {
		best, bestV := -1, uint8(0)
		for i, id := range cands {
			if v := p.rrpv[id]; best == -1 || v > bestV {
				best, bestV = i, v
			}
		}
		if bestV >= p.max {
			return best
		}
		// Age everyone, saturating at max (RRPVs are saturating
		// counters); the maximal candidate reaches max, so the loop
		// terminates even when cands contains duplicate slots.
		for _, id := range cands {
			if p.rrpv[id] < p.max {
				p.rrpv[id]++
			}
		}
	}
}

// RetentionKey packs inverted RRPV above a recency tiebreak.
func (p *SRRIP) RetentionKey(id BlockID) uint64 {
	const seqBits = 40
	return uint64(p.max-p.rrpv[id])<<seqBits | (p.last[id] & (1<<seqBits - 1))
}
