package hash

// Indexer takes an address to its row in each of W ways — the one question
// every step of the zcache asks (§III-A: the demand lookup, each walk level
// where "one of the hash values always matches", each relocation). It is
// built once from the per-way functions and owns the choice of table: the
// packed four-lane WaySet4 for four H3 ways within the lane bound, the
// concrete H3 tables when every way is an H3 (the paper's configuration, so
// no interface dispatch), the Func interface otherwise. Geometry picks;
// callers never learn which. Like the functions it wraps, an Indexer is
// immutable and safe for concurrent readers.
type Indexer struct {
	fns []Func
	h3  []*H3    // fns as concrete types; nil unless every way is an H3
	ws4 *WaySet4 // nil unless h3 is four functions within WaySet4MaxRows
}

// NewIndexer builds the indexer for the way functions fns (way w is fns[w]).
func NewIndexer(fns []Func) *Indexer {
	ix := &Indexer{fns: fns}
	h3 := make([]*H3, len(fns))
	for w, f := range fns {
		h, ok := f.(*H3)
		if !ok {
			return ix
		}
		h3[w] = h
	}
	ix.h3 = h3
	ix.ws4 = NewWaySet4(h3)
	return ix
}

// Ways returns W, the number of rows Rows writes.
func (ix *Indexer) Ways() int { return len(ix.fns) }

// Rows writes addr's row in way w into dst[w] for every way. dst must hold at
// least Ways() elements; it is not retained, so a caller's stack array stays
// on its stack.
func (ix *Indexer) Rows(addr uint64, dst []uint64) {
	switch {
	case ix.ws4 != nil:
		ix.ws4.Rows4(addr, dst)
	case ix.h3 != nil:
		WayRows(ix.h3, addr, dst)
	default:
		dst = dst[:len(ix.fns)]
		for w, f := range ix.fns {
			dst[w] = f.Hash(addr)
		}
	}
}

// Row returns addr's row in way w alone, for the steps that follow a single
// way (a depth-first hop).
func (ix *Indexer) Row(w int, addr uint64) uint64 {
	if ix.h3 != nil {
		return ix.h3[w].Hash(addr)
	}
	return ix.fns[w].Hash(addr)
}

// RowsFrom computes addr's rows from way w on — as many as one table walk
// yields: every way from the packed table, way w alone otherwise — into
// dst[w:], and returns the first way it did not compute. It is how a probe
// that stops at the first matching way hashes as it goes:
//
//	for w, n := 0, 0; w < ix.Ways(); w++ {
//		if w == n {
//			n = ix.RowsFrom(w, addr, dst)
//		}
//		… probe dst[w] …
//	}
//
// so a hit in way w of an unpacked geometry pays w+1 hashes, not W (a zkv GET
// that hits reads 2.5 of 4 ways on average), while the packed table still
// hands over all four rows for one walk.
func (ix *Indexer) RowsFrom(w int, addr uint64, dst []uint64) int {
	switch {
	case ix.ws4 != nil:
		ix.ws4.Rows4(addr, dst)
		return 4
	case ix.h3 != nil:
		dst[w] = ix.h3[w].Hash(addr)
	default:
		dst[w] = ix.fns[w].Hash(addr)
	}
	return w + 1
}
