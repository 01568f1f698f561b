package cache

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// skewTags is the probe half of a ZCache — on a hit a zcache *is* a
// skew-associative cache (§III): a tag store probed at one slot per way, the
// rows computed by the array's hash.Indexer.
type skewTags struct {
	tags tagStore
	idx  *hash.Indexer
	ctr  Counters
	// memoRows[:memoN] are the first rows of memoLine, the last line
	// hashed. Rows depend only on the line address, never on tag contents,
	// so the memo never goes stale: the miss path that follows a missed
	// Lookup (Candidates, the controller's flat install) and a second probe
	// of the same line (zkv's Peek, then Access) reuse it instead of
	// re-hashing.
	memoLine uint64
	memoRows []uint64
	memoN    int
}

// newSkewTags validates the geometry and way functions and builds the
// indexer over tags — a dense store of the array's own unless tags.e names
// borrowed words — for tags.rows rows per way. The functions must be
// distinct-seeded: identical functions silently degenerate to a
// set-associative cache, so function slices where any pair behaves
// identically on a probe set are rejected.
func newSkewTags(tags tagStore, fns []hash.Func) (skewTags, error) {
	if err := validateSkewFns("zcache", tags.rows, fns); err != nil {
		return skewTags{}, err
	}
	if tags.e == nil {
		tags = newTagStore(len(fns), tags.rows)
	}
	tags.ways = len(fns)
	return skewTags{
		tags:     tags,
		idx:      hash.NewIndexer(fns),
		memoRows: make([]uint64, len(fns)),
	}, nil
}

// lineRows returns all of line's per-way rows (rows[w] is way w's), hashing
// only what the memo does not already hold.
func (s *skewTags) lineRows(line uint64) []uint64 {
	if s.memoLine != line {
		s.memoLine, s.memoN = line, 0
	}
	for s.memoN < len(s.memoRows) {
		s.memoN = s.idx.RowsFrom(s.memoN, line, s.memoRows)
	}
	return s.memoRows
}

// Indexer returns the array's address → rows mapping, so a layer that keeps
// per-slot state of its own (zkv's cells) can find a line's slots without
// touching the tags.
func (s *skewTags) Indexer() *hash.Indexer { return s.idx }

// Blocks returns the capacity in lines.
func (s *skewTags) Blocks() int { return s.tags.ways * int(s.tags.rows) }

// Ways returns the number of ways.
func (s *skewTags) Ways() int { return s.tags.ways }

// Counters exposes access accounting.
func (s *skewTags) Counters() *Counters { return &s.ctr }

// Lookup probes the line's one slot per way — the common case, and the
// reason zcache hits cost exactly what a W-way skew cache's hits cost. It
// hashes as it goes (hash.Indexer.RowsFrom): a hit never pays for rows it did
// not read unless the table hands them over free, and a full-probe miss
// leaves every row in the memo for the walk that follows.
func (s *skewTags) Lookup(line uint64) (repl.BlockID, bool) {
	s.ctr.probe(s.tags.ways)
	return s.locate(line)
}

// locate is Lookup without the tag accounting, through the same row memo.
func (s *skewTags) locate(line uint64) (repl.BlockID, bool) {
	if s.memoLine != line {
		s.memoLine, s.memoN = line, 0
	}
	for w := range s.memoRows {
		if w == s.memoN {
			s.memoN = s.idx.RowsFrom(w, line, s.memoRows)
		}
		id := s.tags.slot(w, s.memoRows[w])
		if s.tags.at(id) == line {
			return id, true
		}
	}
	return 0, false
}

// Invalidate removes line if resident. Over borrowed tags it only finds the
// slot: the controller's SlotObserver empties it.
func (s *skewTags) Invalidate(line uint64) (repl.BlockID, bool) {
	for w, row := range s.lineRows(line) {
		id := s.tags.slot(w, row)
		if s.tags.at(id) == line {
			if !s.tags.borrowed {
				s.tags.e[id] = EmptyLine
			}
			s.ctr.TagWrites++
			return id, true
		}
	}
	return 0, false
}

// NewSkew returns a skew-associative array (Seznec, ISCA'93; §II-A) with
// rows rows per way, indexed by fns (one per way): each way has its own hash
// function, so a line has exactly one slot per way but two lines that
// conflict in one way usually do not conflict in the others. It is a zcache
// whose walk stops at the first level — the paper's Z W/W — so its
// candidates are the W blocks at the line's per-way slots and installs
// never relocate.
func NewSkew(rows uint64, fns []hash.Func) (*ZCache, error) {
	return NewZCache(rows, fns, 1)
}

// validateSkewFns checks geometry and pairwise distinctness of way hashes.
func validateSkewFns(design string, rows uint64, fns []hash.Func) error {
	if err := validateGeometry(design, len(fns), rows); err != nil {
		return err
	}
	for i, f := range fns {
		if f.Buckets() != rows {
			return fmt.Errorf("cache: %s way %d hash covers %d buckets, array has %d rows", design, i, f.Buckets(), rows)
		}
	}
	if len(fns) < 2 {
		return nil
	}
	for i := 0; i < len(fns); i++ {
		for j := i + 1; j < len(fns); j++ {
			same := 0
			const probes = 64
			for p := uint64(0); p < probes; p++ {
				addr := hash.Mix64(p)
				if fns[i].Hash(addr) == fns[j].Hash(addr) {
					same++
				}
			}
			if same == probes {
				return fmt.Errorf("cache: %s ways %d and %d share an identical hash function; skewing requires independent functions", design, i, j)
			}
		}
	}
	return nil
}
