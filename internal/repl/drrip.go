package repl

import "fmt"

// DRRIP is the repository's §VIII future-work policy: dynamic re-reference
// interval prediction (Jaleel et al., ISCA'10) adapted to set-less caches.
// It duels two insertion policies — SRRIP (insert at long re-reference) and
// BRRIP (insert at distant re-reference with occasional long insertions,
// which resists thrashing/scanning) — and follows the winner.
//
// Classic DRRIP dedicates leader *sets* to each policy; a zcache has no
// sets, so leadership is assigned by address hash: a fixed fraction of
// lines always insert SRRIP-style, an equal fraction always BRRIP-style,
// and the rest follow whichever leader population is currently missing
// less (a saturating PSEL counter, bumped on leader insertions as a miss
// proxy). This is exactly the kind of policy §III-E anticipates: it needs
// no set ordering, only per-block state and a couple of global counters.
type DRRIP struct {
	rrpv []uint8
	max  uint8
	seq  uint64
	last []uint64
	// psel is the dueling counter: high favors SRRIP, low favors BRRIP.
	psel    int
	pselMax int
	// brripToss drives BRRIP's occasional long insertion (1/32).
	state uint64
	// leaderMask/leaderSR select leader lines by address hash.
	leaderShift uint
}

// NewDRRIP returns a DRRIP policy with bits-wide RRPVs (2 in the original).
func NewDRRIP(numBlocks int, bits uint, seed uint64) (*DRRIP, error) {
	if err := checkBlocks("drrip", numBlocks); err != nil {
		return nil, err
	}
	if bits == 0 || bits > 7 {
		return nil, fmt.Errorf("repl: drrip RRPV width must be in [1,7] bits, got %d", bits)
	}
	return &DRRIP{
		rrpv:        make([]uint8, numBlocks),
		max:         uint8(1<<bits - 1),
		last:        make([]uint64, numBlocks),
		psel:        512,
		pselMax:     1023,
		state:       seed | 1,
		leaderShift: 5, // 1/32 of lines lead each policy
	}, nil
}

// Name identifies the policy.
func (p *DRRIP) Name() string { return "drrip" }

// leadership classifies an address: 0 = SRRIP leader, 1 = BRRIP leader,
// 2 = follower.
func (p *DRRIP) leadership(addr uint64) int {
	// Mix the address so leadership is uncorrelated with placement.
	h := addr * 0x9e3779b97f4a7c15
	bucket := h >> (64 - p.leaderShift)
	switch bucket {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return 2
	}
}

func (p *DRRIP) rand() uint64 {
	p.state ^= p.state << 13
	p.state ^= p.state >> 7
	p.state ^= p.state << 17
	return p.state * 0x2545f4914f6cdd1d
}

func (p *DRRIP) stamp(id BlockID) {
	p.seq++
	p.last[id] = p.seq
}

// OnInsert applies the dueling insertion policy.
func (p *DRRIP) OnInsert(id BlockID, addr uint64) {
	srrip := false
	switch p.leadership(addr) {
	case 0: // SRRIP leader: a miss here is evidence against SRRIP.
		srrip = true
		if p.psel > 0 {
			p.psel--
		}
	case 1: // BRRIP leader: a miss here is evidence against BRRIP.
		if p.psel < p.pselMax {
			p.psel++
		}
	default:
		srrip = p.psel >= (p.pselMax+1)/2
	}
	if srrip {
		p.rrpv[id] = p.max - 1
	} else {
		// BRRIP: distant insertion, long 1/32 of the time.
		p.rrpv[id] = p.max
		if p.rand()%32 == 0 {
			p.rrpv[id] = p.max - 1
		}
	}
	p.stamp(id)
}

// OnAccess promotes the block to near-immediate re-reference.
func (p *DRRIP) OnAccess(id BlockID, write bool) {
	p.rrpv[id] = 0
	p.stamp(id)
}

// OnEvict clears the slot.
func (p *DRRIP) OnEvict(id BlockID) {
	p.rrpv[id], p.last[id] = 0, 0
}

// OnMoves carries RRPV state with each relocated block to its new slot.
func (p *DRRIP) OnMoves(moves []Move) {
	for _, m := range moves {
		p.rrpv[m.To], p.last[m.To] = p.rrpv[m.From], p.last[m.From]
		p.rrpv[m.From], p.last[m.From] = 0, 0
	}
}

// Select evicts a maximal-RRPV candidate, aging candidates as needed.
func (p *DRRIP) Select(cands []BlockID) int {
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
		for _, id := range cands {
			if p.rrpv[id] < p.max {
				p.rrpv[id]++
			}
		}
	}
}

// RetentionKey packs inverted RRPV above a recency tiebreak.
func (p *DRRIP) RetentionKey(id BlockID) uint64 {
	const seqBits = 40
	return uint64(p.max-p.rrpv[id])<<seqBits | (p.last[id] & (1<<seqBits - 1))
}

// PSEL exposes the dueling counter for tests and telemetry (high = SRRIP
// winning).
func (p *DRRIP) PSEL() int { return p.psel }
