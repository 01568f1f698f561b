package cache

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// VictimCache is the §II-B comparator: a conventional set-associative main
// array backed by a small fully-associative victim buffer (Jouppi,
// ISCA'90). Main-array victims drop into the buffer; a hit there swaps the
// block back into the main array. It catches conflict misses that re-occur
// quickly, but — as the paper notes — works poorly when a sizable number of
// conflict misses hammer a few hot sets, and every main-array miss pays the
// buffer probe in latency and energy whether or not it hits.
//
// The paper's analytical point stands here too: the design's associativity
// is bounded by ways + victim entries *shared across all sets*, so a single
// hot set exhausts it.
//
// The main array is the embedded SetAssoc: its slots, candidates and
// counters are the design's. Buffer entries are not policy-visible slots, so
// swap-backs recycle the per-slot replacement and dirty state of the block
// they displace; VictimCache is a tags-only miss-rate comparator for §II, not
// for writeback-accurate hierarchy simulation.
type VictimCache struct {
	*SetAssoc
	// Victim buffer: fully associative, FIFO replacement (the classical
	// design); an empty entry holds EmptyLine, like an empty tag.
	vb     []uint64
	vbNext int
	// VictimHits counts misses served by the buffer (swap-backs).
	VictimHits uint64
}

// NewVictimCache returns a ways×sets main array with a victimEntries-entry
// buffer, indexed by idx.
func NewVictimCache(ways int, sets uint64, victimEntries int, idx hash.Func) (*VictimCache, error) {
	if victimEntries <= 0 {
		return nil, fmt.Errorf("cache: victim buffer needs positive entries, got %d", victimEntries)
	}
	main, err := NewSetAssoc(ways, sets, idx)
	if err != nil {
		return nil, err
	}
	main.name = fmt.Sprintf("victim-%dw-%ds+%d", ways, sets, victimEntries)
	return &VictimCache{SetAssoc: main, vb: emptyTags(uint64(victimEntries))}, nil
}

// VictimEntries returns the buffer size.
func (a *VictimCache) VictimEntries() int { return len(a.vb) }

// Lookup probes the main set, then the victim buffer. A buffer hit swaps
// the block back into the main array (evicting the set's way-0 block into
// the buffer, per the classical swap) and reports a hit at the swapped-in
// slot.
func (a *VictimCache) Lookup(line uint64) (repl.BlockID, bool) {
	if id, ok := a.SetAssoc.Lookup(line); ok {
		return id, true
	}
	// Buffer probe: charged on every main miss (§II-B's latency/energy
	// criticism).
	a.ctr.TagReads += uint64(len(a.vb))
	for i := range a.vb {
		if a.vb[i] == line {
			a.VictimHits++
			id := a.tags.slot(0, a.row(line))
			a.vb[i], a.tags.e[id] = a.tags.e[id], line
			// One read and one write on each side of the swap.
			a.ctr.TagReads += 2
			a.ctr.TagWrites += 2
			a.ctr.DataReads += 2
			a.ctr.DataWrites += 2
			a.ctr.Relocations++
			return id, true
		}
	}
	return 0, false
}

// Install replaces the victim slot; the displaced block drops into the
// victim buffer (FIFO), displacing its oldest entry.
func (a *VictimCache) Install(line uint64, cands []Candidate, victim int) ([]Move, error) {
	if _, err := a.SetAssoc.Install(line, cands, victim); err != nil {
		return nil, err
	}
	if c := cands[victim]; c.Valid {
		a.vb[a.vbNext] = c.Addr
		a.vbNext = (a.vbNext + 1) % len(a.vb)
		a.ctr.TagWrites++
		a.ctr.DataWrites++
	}
	return nil, nil
}

// Invalidate removes line from the main array or the buffer.
func (a *VictimCache) Invalidate(line uint64) (repl.BlockID, bool) {
	if id, ok := a.SetAssoc.Invalidate(line); ok {
		return id, true
	}
	for i := range a.vb {
		if a.vb[i] == line {
			a.vb[i] = EmptyLine
			a.ctr.TagWrites++
			// Buffer entries have no policy slot; report way-0 of
			// the line's set as a stable pseudo-slot. Controllers
			// only use the ID for policy bookkeeping of main-array
			// blocks, and this line had none.
			return a.tags.slot(0, a.row(line)), false
		}
	}
	return 0, false
}
