package cache

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// ColumnAssoc is the §II-B column-associative cache (Agarwal & Pudar,
// ISCA'93): a direct-mapped array where each line has a primary and a
// secondary location given by two hash functions. Lookups probe the primary
// location first; on a mismatch they probe the secondary one, and a
// secondary hit swaps the two blocks so the hotter block sits at its
// primary slot. The cost the paper highlights: variable hit latency (one or
// two probes) and swap energy on secondary hits.
//
// Like VictimCache, this is a tags-only miss-rate comparator for the §II
// design space.
type ColumnAssoc struct {
	name string
	tags tagStore // 1 "way", rows slots
	h1   hash.Func
	h2   hash.Func
	// SecondaryHits counts hits that needed the second probe (the
	// variable-latency population).
	SecondaryHits uint64
	ctr           Counters
}

// NewColumnAssoc returns a column-associative array with rows slots,
// indexed by the primary and secondary functions (which must be
// independent).
func NewColumnAssoc(rows uint64, h1, h2 hash.Func) (*ColumnAssoc, error) {
	if err := validateSkewFns("column-associative", rows, []hash.Func{h1, h2}); err != nil {
		return nil, err
	}
	return &ColumnAssoc{
		name: fmt.Sprintf("column-%dr", rows),
		tags: newTagStore(1, rows),
		h1:   h1,
		h2:   h2,
	}, nil
}

// Name identifies the design.
func (a *ColumnAssoc) Name() string { return a.name }

// Blocks returns the capacity in lines.
func (a *ColumnAssoc) Blocks() int { return int(a.tags.rows) }

// Ways returns 1: physically direct-mapped.
func (a *ColumnAssoc) Ways() int { return 1 }

// Lookup probes the primary slot, then the secondary; a secondary hit swaps
// the blocks and reports the (now primary) slot.
func (a *ColumnAssoc) Lookup(line uint64) (repl.BlockID, bool) {
	a.ctr.TagLookups++
	a.ctr.TagReads++
	p := repl.BlockID(a.h1.Hash(line))
	if a.tags.e[p] == line {
		return p, true
	}
	a.ctr.TagLookups++
	a.ctr.TagReads++
	s := repl.BlockID(a.h2.Hash(line))
	if s != p && a.tags.e[s] == line {
		a.SecondaryHits++
		// Swap so the block moves to its primary slot (and the
		// displaced block moves to what is its own alternative slot
		// only probabilistically — the classical design swaps
		// unconditionally, accepting that the displaced block may now
		// be unreachable; we keep it reachable by swapping only when
		// legal, a common refinement).
		displaced := a.tags.e[p]
		if displaced == EmptyLine || a.h1.Hash(displaced) == uint64(s) || a.h2.Hash(displaced) == uint64(s) {
			a.swap(p, s)
			return p, true
		}
		return s, true
	}
	return 0, false
}

// swap exchanges two slots' contents, charging the swap traffic.
func (a *ColumnAssoc) swap(x, y repl.BlockID) {
	a.tags.e[x], a.tags.e[y] = a.tags.e[y], a.tags.e[x]
	a.ctr.TagReads += 2
	a.ctr.TagWrites += 2
	a.ctr.DataReads += 2
	a.ctr.DataWrites += 2
	a.ctr.Relocations++
}

// Candidates returns the line's two possible locations.
func (a *ColumnAssoc) Candidates(line uint64, buf []Candidate) []Candidate {
	p := a.h1.Hash(line)
	s := a.h2.Hash(line)
	buf = append(buf, Candidate{
		ID: repl.BlockID(p), Addr: a.tags.e[p], Valid: a.tags.e[p] != EmptyLine,
		Way: 0, Row: p, Level: 1, Parent: -1,
	})
	if s != p {
		buf = append(buf, Candidate{
			ID: repl.BlockID(s), Addr: a.tags.e[s], Valid: a.tags.e[s] != EmptyLine,
			Way: 0, Row: s, Level: 1, Parent: -1,
		})
	}
	return buf
}

// MaxCandidates returns the most candidates one Candidates call can yield:
// the primary and secondary locations.
func (a *ColumnAssoc) MaxCandidates() int { return 2 }

// Install places line in the victim slot.
func (a *ColumnAssoc) Install(line uint64, cands []Candidate, victim int) ([]Move, error) {
	if victim < 0 || victim >= len(cands) {
		return nil, fmt.Errorf("cache: victim index %d out of range [0,%d)", victim, len(cands))
	}
	a.tags.e[cands[victim].ID] = line
	a.ctr.TagWrites++
	a.ctr.DataWrites++
	return nil, nil
}

// Invalidate removes line if resident in either location.
func (a *ColumnAssoc) Invalidate(line uint64) (repl.BlockID, bool) {
	for _, h := range []hash.Func{a.h1, a.h2} {
		id := repl.BlockID(h.Hash(line))
		if a.tags.e[id] == line {
			a.tags.e[id] = EmptyLine
			a.ctr.TagWrites++
			return id, true
		}
	}
	return 0, false
}

// Counters exposes access accounting.
func (a *ColumnAssoc) Counters() *Counters { return &a.ctr }
