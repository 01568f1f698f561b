package repl

import "fmt"

// OPT is Belady's policy (§IV-A, §VI-B): blocks are ranked by the time of
// their next reference, and replacement evicts the candidate reused furthest
// in the future. It is trace-driven: before each cache access the driver
// calls SetNextUse with the index of the access's next reference to the same
// line (trace.AnnotateNextUse computes these in one backwards pass).
//
// As the paper's footnote 2 notes, in caches with inter-set interference
// (skew-associative, zcache) OPT is a good heuristic rather than a true
// optimum; it is used to decouple associativity effects from replacement-
// policy ill-effects.
type OPT struct {
	pending  uint64 // next-use of the in-flight access
	hasPend  bool
	nextUse  []uint64
	inserted []uint64 // per-slot tiebreak sequence
	seq      uint64
}

// noReuse mirrors trace.NoNextUse without importing the package (repl is a
// lower layer than trace).
const noReuse = ^uint64(0)

// NewOPT returns a trace-driven Belady policy for numBlocks slots.
func NewOPT(numBlocks int) (*OPT, error) {
	if err := checkBlocks("opt", numBlocks); err != nil {
		return nil, err
	}
	return &OPT{
		nextUse:  make([]uint64, numBlocks),
		inserted: make([]uint64, numBlocks),
	}, nil
}

// Name identifies the policy.
func (p *OPT) Name() string { return "opt" }

// SetNextUse supplies the next-use index of the access about to be issued.
func (p *OPT) SetNextUse(next uint64) { p.pending, p.hasPend = next, true }

func (p *OPT) consume(id BlockID) {
	if !p.hasPend {
		// Driver forgot SetNextUse; treating the block as never reused
		// would silently corrupt results, so fail loudly.
		panic("repl: OPT access without SetNextUse; drive OPT through a next-use-annotated trace")
	}
	p.nextUse[id] = p.pending
	p.hasPend = false
	p.seq++
	p.inserted[id] = p.seq
}

// OnInsert attaches the pending next-use to the inserted block.
func (p *OPT) OnInsert(id BlockID, addr uint64) { p.consume(id) }

// OnAccess updates the block's next-use from the pending access.
func (p *OPT) OnAccess(id BlockID, write bool) { p.consume(id) }

// OnEvict clears the slot.
func (p *OPT) OnEvict(id BlockID) {
	p.nextUse[id], p.inserted[id] = 0, 0
}

// OnMoves carries next-use state with each relocated block to its new slot.
func (p *OPT) OnMoves(moves []Move) {
	for _, m := range moves {
		p.nextUse[m.To], p.inserted[m.To] = p.nextUse[m.From], p.inserted[m.From]
		p.nextUse[m.From], p.inserted[m.From] = 0, 0
	}
}

// Select evicts the candidate reused furthest in the future; never-reused
// candidates win immediately.
func (p *OPT) Select(cands []BlockID) int {
	if len(cands) == 0 {
		return NoVictim
	}
	best, bestNext := 0, p.nextUse[cands[0]]
	for i := 1; i < len(cands); i++ {
		if n := p.nextUse[cands[i]]; n > bestNext {
			best, bestNext = i, n
		}
	}
	return best
}

// RetentionKey orders blocks by imminence of reuse: sooner reuse = larger
// key. Next-use indices are unique across resident blocks (one access
// references one line), so ^nextUse is unique; never-reused blocks sit in a
// disjoint low band keyed by their unique insertion sequence. The bands
// cannot collide as long as trace indices and event counts stay below 2^63,
// which any realistic run satisfies.
func (p *OPT) RetentionKey(id BlockID) uint64 {
	n := p.nextUse[id]
	if n == noReuse {
		return p.inserted[id]
	}
	return ^n
}

// String aids debugging.
func (p *OPT) String() string {
	return fmt.Sprintf("opt[pending=%v]", p.hasPend)
}
