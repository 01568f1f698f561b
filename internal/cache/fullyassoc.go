package cache

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// slotMap is the unconstrained array FullyAssoc and RandomCandidates share:
// any line can live in any slot, and lookups go through a map (hardware
// would use a CAM). The two differ only in which slots they offer as
// replacement candidates once full. Slots fill in order, so while the array
// is filling each miss is offered the single next empty slot and cold
// installs are O(1). An invalidation frees its slot for reuse only when a
// later replacement draws it, so invalidations briefly leave holes; the
// associativity experiments do not invalidate.
type slotMap struct {
	name   string
	blocks int
	filled int
	where  map[uint64]repl.BlockID
	addrs  []uint64
	valid  []bool
	ctr    Counters
}

func newSlotMap(name string, blocks int) slotMap {
	return slotMap{
		name:   name,
		blocks: blocks,
		where:  make(map[uint64]repl.BlockID, blocks),
		addrs:  make([]uint64, blocks),
		valid:  make([]bool, blocks),
	}
}

// Name identifies the design.
func (a *slotMap) Name() string { return a.name }

// Blocks returns the capacity in lines.
func (a *slotMap) Blocks() int { return a.blocks }

// Lookup finds line's slot.
func (a *slotMap) Lookup(line uint64) (repl.BlockID, bool) {
	a.ctr.TagLookups++
	a.ctr.TagReads++ // CAM probe modelled as one tag access
	id, ok := a.where[line]
	return id, ok
}

// filling reports whether the array is still filling in order, offering
// each miss only the next empty slot, a.filled.
func (a *slotMap) filling() bool { return a.filled < a.blocks && !a.valid[a.filled] }

// candidate describes slot id with its validity.
func (a *slotMap) candidate(id repl.BlockID) Candidate {
	return Candidate{ID: id, Addr: a.addrs[id], Valid: a.valid[id], Level: 1, Parent: -1}
}

// Install replaces the victim slot with line; installs never relocate.
func (a *slotMap) Install(line uint64, cands []Candidate, victim int) ([]Move, error) {
	if victim < 0 || victim >= len(cands) {
		return nil, fmt.Errorf("cache: victim index %d out of range [0,%d)", victim, len(cands))
	}
	c := cands[victim]
	if c.Valid {
		delete(a.where, c.Addr)
	} else if int(c.ID) == a.filled {
		a.filled++
	}
	a.addrs[c.ID] = line
	a.valid[c.ID] = true
	a.where[line] = c.ID
	a.ctr.TagWrites++
	a.ctr.DataWrites++
	return nil, nil
}

// Invalidate removes line if resident.
func (a *slotMap) Invalidate(line uint64) (repl.BlockID, bool) {
	id, ok := a.where[line]
	if !ok {
		return 0, false
	}
	delete(a.where, line)
	a.valid[id] = false
	a.ctr.TagWrites++
	return id, true
}

// Counters exposes access accounting.
func (a *slotMap) Counters() *Counters { return &a.ctr }

// FullyAssoc is a fully-associative array: every resident block is a
// replacement candidate. It exists as the analytical reference — the
// conflict-miss definition (§IV) subtracts a fully-associative cache's
// misses, and a fully-associative cache always evicts the block with
// eviction priority 1.0. It is the n = B limit of RandomCandidates.
// Candidates is O(B), so use it with small-to-medium capacities, not the
// 131072-line L2.
type FullyAssoc struct{ slotMap }

// NewFullyAssoc returns a fully-associative array with the given capacity.
func NewFullyAssoc(blocks int) (*FullyAssoc, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("cache: fully-associative needs positive capacity, got %d", blocks)
	}
	return &FullyAssoc{newSlotMap(fmt.Sprintf("fa-%d", blocks), blocks)}, nil
}

// Candidates returns a single empty slot while the array is filling; once
// full, it returns every slot with its validity, letting the controller
// reuse invalidation holes.
func (a *FullyAssoc) Candidates(line uint64, buf []Candidate) []Candidate {
	if a.filling() {
		return append(buf, a.candidate(repl.BlockID(a.filled)))
	}
	for i := 0; i < a.blocks; i++ {
		buf = append(buf, a.candidate(repl.BlockID(i)))
	}
	return buf
}

// MaxCandidates returns the most candidates one Candidates call can yield:
// every slot, once the array is full.
func (a *FullyAssoc) MaxCandidates() int { return a.blocks }

// RandomCandidates is the §IV-B thought experiment made runnable: lookups
// are unconstrained (map-based), and each replacement draws n random slots
// (with repetition) from the whole array. Because every draw is an unbiased,
// independent sample of the policy's global ranking, this design meets the
// uniformity assumption *exactly* and its measured associativity
// distribution must match F_A(x) = x^n — the validation experiment that
// anchors the analytical framework.
type RandomCandidates struct {
	slotMap
	n     int
	state uint64
}

// NewRandomCandidates returns the random-candidates design with the given
// capacity and candidates-per-replacement, seeded deterministically.
func NewRandomCandidates(blocks, candidates int, seed uint64) (*RandomCandidates, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("cache: random-candidates needs positive capacity, got %d", blocks)
	}
	if candidates <= 0 {
		return nil, fmt.Errorf("cache: random-candidates needs positive candidate count, got %d", candidates)
	}
	return &RandomCandidates{
		slotMap: newSlotMap(fmt.Sprintf("randcand-%d-n%d", blocks, candidates), blocks),
		n:       candidates,
		state:   seed | 1,
	}, nil
}

// Candidates returns one empty slot while the array is filling, then n
// random slots (with repetition, as §IV-B specifies).
func (a *RandomCandidates) Candidates(line uint64, buf []Candidate) []Candidate {
	if a.filling() {
		return append(buf, a.candidate(repl.BlockID(a.filled)))
	}
	for i := 0; i < a.n; i++ {
		a.state = hash.Mix64(a.state)
		buf = append(buf, a.candidate(repl.BlockID(a.state%uint64(a.blocks))))
	}
	a.ctr.TagReads += uint64(a.n)
	return buf
}

// MaxCandidates returns the most candidates one Candidates call can yield.
func (a *RandomCandidates) MaxCandidates() int { return a.n }
