// Package cache implements the paper's cache designs as composable pieces:
//
//   - Array: the physical organization — where a line may live, and which
//     resident blocks are replacement candidates for an incoming line. This
//     package provides set-associative (with or without index hashing),
//     zcache (skew-associative being the one-level zcache, Z W/W),
//     fully-associative, and random-candidates arrays (§II–§III, §IV-B).
//   - Cache: the controller wrapping an Array with a repl.Policy, hit/miss
//     and writeback bookkeeping, the bandwidth/energy event counters that
//     §III-B and §VI-D consume, and optional eviction observers for the
//     associativity instrumentation.
//
// Arrays operate on line addresses (byte address >> line bits); the Cache
// wrapper performs the shift. The model is tags-only: data payloads carry no
// information the experiments need, but data-array reads and writes are
// counted for the energy model.
package cache

import (
	"fmt"

	"zcache/internal/repl"
)

// Candidate is one replacement candidate discovered for an incoming line.
// Candidates form a forest encoded by Parent indices: first-level candidates
// (the blocks the incoming line directly conflicts with) have Parent == -1;
// an L-level zcache walk yields candidates up to Level == L.
type Candidate struct {
	// ID is the physical slot.
	ID repl.BlockID
	// Addr is the resident line address; meaningless if !Valid.
	Addr uint64
	// Valid is false if the slot is empty (the incoming line can be
	// installed there without an eviction).
	Valid bool
	// Way and Row locate the slot: ID == Way*rows + Row in a zcache,
	// Row*ways + Way in a set-associative array.
	Way int
	Row uint64
	// Level is 1 for direct conflicts, increasing along the walk.
	Level int
	// Parent indexes the candidate whose relocation would free this
	// slot's conflict, or -1 at the first level.
	Parent int
}

// Move records a relocation: the block in slot From moved to slot To. It is
// an alias of repl.Move so the policy's OnMoves consumes install move slices
// without conversion.
type Move = repl.Move

// Array is a physical cache organization.
//
// The contract mirrors a hardware tag pipeline: Lookup is the latency- and
// energy-critical path; Candidates and Install model the off-critical-path
// replacement process (§III). Implementations are not safe for concurrent
// use.
type Array interface {
	// Name identifies the design (e.g. "sa-16-h3", "z-4x2048-L3").
	Name() string
	// Blocks returns the capacity in lines.
	Blocks() int
	// Lookup returns the slot holding line, if resident. It moves no
	// line: a slot's line changes only through Install (its moves and its
	// eviction) and Invalidate, which the controller sees and reports.
	Lookup(line uint64) (repl.BlockID, bool)
	// Candidates appends the replacement candidates for an incoming line
	// to buf and returns it. line must not be resident.
	Candidates(line uint64, buf []Candidate) []Candidate
	// MaxCandidates bounds how many candidates one Candidates call can
	// yield (including any hybrid-walk extension), so controllers can
	// preallocate scratch buffers once at construction.
	MaxCandidates() int
	// Install places line by evicting cands[victim] (which must be the
	// exact slice returned by the immediately preceding Candidates call)
	// and relocating ancestors as needed. If cands[victim] is invalid
	// (an empty slot) nothing is evicted. The returned moves slice is
	// valid until the next Install call. Install fails if the victim's
	// ancestor chain revisits a slot (a cuckoo cycle); callers exclude
	// that candidate and reselect — see Cache.Access.
	Install(line uint64, cands []Candidate, victim int) (moves []Move, err error)
	// Invalidate removes line if resident, returning the slot it held.
	// Inclusive hierarchies use this for back-invalidations.
	Invalidate(line uint64) (repl.BlockID, bool)
	// Counters exposes the array's access accounting.
	Counters() *Counters
}

// Counters tallies array activity in units the energy model and the §VI-D
// bandwidth analysis consume. Tag and data figures count single-way array
// touches (E_rt/E_wt/E_rd/E_wd multipliers in §III-B); TagLookups counts
// full-width pipeline slots (one lookup = all ways probed in parallel),
// which is the unit the paper's accesses/cycle/bank arithmetic uses.
type Counters struct {
	// TagLookups is the number of full-width tag pipeline accesses:
	// demand lookups plus walk steps.
	TagLookups uint64
	// WalkLookups is the subset of TagLookups issued by zcache walks.
	WalkLookups uint64
	// TagReads / TagWrites count single-way tag touches.
	TagReads  uint64
	TagWrites uint64
	// DataReads / DataWrites count data-array line touches.
	DataReads  uint64
	DataWrites uint64
	// Relocations counts blocks moved during zcache installs.
	Relocations uint64
}

// probe charges one demand lookup across ways ways.
func (c *Counters) probe(ways int) {
	c.TagLookups++
	c.TagReads += uint64(ways)
}

// EmptyLine is the tag of an empty slot. A tag is the resident line address
// and nothing else (§III-A: the array holds tags only), so one address is
// reserved to mean "no line". The simulator never produces it — its lines
// are byte addresses shifted right by at least 6 bits — and zkv, whose lines
// are 64-bit key fingerprints, maps the one fingerprint equal to it onto a
// neighbour (zkv.Line). Cache panics on it wherever it takes an address.
const EmptyLine = ^uint64(0)

// tagStore is the shared ways×rows tag storage used by the indexed arrays:
// one word per slot, the resident line or EmptyLine, so a way probe is one
// load and one compare. The arrays' own stores are dense (e[id], shift 0). A
// zcache over borrowed words (NewZCacheOver) reads its tags out of another
// layer's per-slot records instead, e[id<<shift], and never writes them.
//
// slot and wayRow number a zcache's slots way-major (id = way·rows + row): a
// line's W slots lie in W different rows anyway. SetAssoc numbers its own
// set-major (SetAssoc.slot).
type tagStore struct {
	ways int
	rows uint64
	e    []uint64 // slot id's tag is e[id<<shift]
	// shift is log2 of the word stride between two slots' tags.
	shift uint
	// borrowed marks words the array does not own: the controller's
	// SlotObserver applies every tag change (see NewZCacheOver).
	borrowed bool
}

func newTagStore(ways int, rows uint64) tagStore {
	return tagStore{ways: ways, rows: rows, e: emptyTags(uint64(ways) * rows)}
}

// at reads slot id's tag.
func (t *tagStore) at(id repl.BlockID) uint64 { return t.e[uint64(id)<<(t.shift&63)] }

// emptyTags returns n tags, all EmptyLine.
func emptyTags(n uint64) []uint64 {
	e := make([]uint64, n)
	for i := range e {
		e[i] = EmptyLine
	}
	return e
}

// slot numbers the slot at way and row way-major.
func (t *tagStore) slot(way int, row uint64) repl.BlockID {
	return repl.BlockID(uint64(way)*t.rows + row)
}

// wayRow inverts slot.
func (t *tagStore) wayRow(id repl.BlockID) (int, uint64) {
	return int(uint64(id) / t.rows), uint64(id) % t.rows
}

// validateGeometry checks array shape arguments shared by constructors.
func validateGeometry(design string, ways int, rows uint64) error {
	if ways <= 0 {
		return fmt.Errorf("cache: %s needs positive ways, got %d", design, ways)
	}
	if rows == 0 || rows&(rows-1) != 0 {
		return fmt.Errorf("cache: %s needs a power-of-two row count, got %d", design, rows)
	}
	return nil
}
