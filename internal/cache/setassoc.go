package cache

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// SetAssoc is a conventional set-associative array: one index function
// shared by all ways, candidates are the W blocks of the indexed set. With
// hash.BitSelect it models the classic unhashed design; with an H3 function
// it models the hashed-index variant some commercial last-level caches ship
// (§II-A) — the paper's baseline is the 4-way hashed configuration.
type SetAssoc struct {
	name  string
	index hash.Func
	// idxH3/idxBS hold the index function's concrete type when it is one
	// of the two shipped implementations, so the per-access row
	// computation is a direct (inlinable for BitSelect) call instead of an
	// interface dispatch.
	idxH3 *hash.H3
	idxBS *hash.BitSelect
	tags  tagStore
	ctr   Counters
}

// NewSetAssoc returns a set-associative array with the given ways and sets,
// indexed by index (whose bucket count must equal sets).
func NewSetAssoc(ways int, sets uint64, index hash.Func) (*SetAssoc, error) {
	if err := validateGeometry("set-associative", ways, sets); err != nil {
		return nil, err
	}
	if index.Buckets() != sets {
		return nil, fmt.Errorf("cache: index function covers %d buckets, array has %d sets", index.Buckets(), sets)
	}
	a := &SetAssoc{
		name:  fmt.Sprintf("sa-%dw-%ds-%s", ways, sets, index.Name()),
		index: index,
		tags:  newTagStore(ways, sets),
	}
	switch f := index.(type) {
	case *hash.H3:
		a.idxH3 = f
	case *hash.BitSelect:
		a.idxBS = f
	}
	return a, nil
}

// row computes the set index through the concrete function when known.
func (a *SetAssoc) row(line uint64) uint64 {
	if a.idxBS != nil {
		return a.idxBS.Hash(line)
	}
	if a.idxH3 != nil {
		return a.idxH3.Hash(line)
	}
	return a.index.Hash(line)
}

// Name identifies the design.
func (a *SetAssoc) Name() string { return a.name }

// Blocks returns the capacity in lines.
func (a *SetAssoc) Blocks() int { return a.tags.ways * int(a.tags.rows) }

// Lookup probes all ways of the indexed set.
func (a *SetAssoc) Lookup(line uint64) (repl.BlockID, bool) {
	a.ctr.probe(a.tags.ways)
	return a.locate(line)
}

// slot numbers the slot at way and row set-major (id = row·ways + way), so a
// set's W tags, and the policy's W per-slot entries, sit side by side in host
// memory.
func (a *SetAssoc) slot(way int, row uint64) repl.BlockID {
	return repl.BlockID(row*uint64(a.tags.ways) + uint64(way))
}

// locate is Lookup without the tag accounting. The set's W slots are
// consecutive.
func (a *SetAssoc) locate(line uint64) (repl.BlockID, bool) {
	base := uint64(a.slot(0, a.row(line)))
	for w, tag := range a.tags.e[base : base+uint64(a.tags.ways)] {
		if tag == line {
			return repl.BlockID(base + uint64(w)), true
		}
	}
	return 0, false
}

// Candidates returns the blocks of the indexed set. The tag reads for these
// candidates were already performed by the demand lookup that missed, so no
// extra accounting happens here.
func (a *SetAssoc) Candidates(line uint64, buf []Candidate) []Candidate {
	row := a.row(line)
	for w := 0; w < a.tags.ways; w++ {
		id := a.slot(w, row)
		buf = append(buf, Candidate{
			ID:     id,
			Addr:   a.tags.e[id],
			Valid:  a.tags.e[id] != EmptyLine,
			Way:    w,
			Row:    row,
			Level:  1,
			Parent: -1,
		})
	}
	return buf
}

// Install replaces the victim slot with line; set-associative installs never
// relocate.
func (a *SetAssoc) Install(line uint64, cands []Candidate, victim int) ([]Move, error) {
	if victim < 0 || victim >= len(cands) {
		return nil, fmt.Errorf("cache: victim index %d out of range [0,%d)", victim, len(cands))
	}
	a.tags.e[cands[victim].ID] = line
	a.ctr.TagWrites++
	a.ctr.DataWrites++
	return nil, nil
}

// MaxCandidates returns the most candidates one Candidates call can yield.
func (a *SetAssoc) MaxCandidates() int { return a.tags.ways }

// installAt writes line into slot id, charging the same install traffic as
// Install. The controller's flat fast path uses it to place a line without
// materializing Candidate structs.
func (a *SetAssoc) installAt(id repl.BlockID, line uint64) {
	a.tags.e[id] = line
	a.ctr.TagWrites++
	a.ctr.DataWrites++
}

// Invalidate removes line if resident, returning its slot.
func (a *SetAssoc) Invalidate(line uint64) (repl.BlockID, bool) {
	id, ok := a.locate(line)
	if ok {
		a.tags.e[id] = EmptyLine
		a.ctr.TagWrites++
	}
	return id, ok
}

// Counters exposes access accounting.
func (a *SetAssoc) Counters() *Counters { return &a.ctr }
