package hash

import "testing"

// indexerFns returns ways functions over rows buckets: all H3, or — mixed —
// H3 with a BitSelect in way 0 and a SHA-1 in the last way, which forces the
// indexer onto the Func interface.
func indexerFns(t *testing.T, ways int, rows uint64, mixed bool) []Func {
	t.Helper()
	fns, err := H3Family{Seed: 0x1d + rows}.New(ways, rows)
	if err != nil {
		t.Fatal(err)
	}
	if mixed {
		if fns[0], err = NewBitSelect(3, rows); err != nil {
			t.Fatal(err)
		}
		if fns[ways-1], err = NewSHA1(uint64(ways), rows); err != nil {
			t.Fatal(err)
		}
	}
	return fns
}

// TestIndexerMatchesFuncs is the "Indexer ≡ per-way functions" guarantee:
// whichever table the indexer picked, Rows, Row and a RowsFrom probe loop
// return exactly fns[w].Hash for every way — at every way count the arrays distinguish, at
// every row count from 1 across the packed table's lane bound, for all-H3 and
// mixed function sets. It also pins the pick: the packed table serves four
// H3 ways up to WaySet4MaxRows rows and nothing else.
func TestIndexerMatchesFuncs(t *testing.T) {
	addrs := waySet4Addrs()
	for _, ways := range []int{1, 2, 3, 4, 5, 8, 16} {
		for rows := uint64(1); rows <= WaySet4MaxRows<<2; rows <<= 1 {
			for _, mixed := range []bool{false, true} {
				fns := indexerFns(t, ways, rows, mixed)
				ix := NewIndexer(fns)
				if ix.Ways() != ways {
					t.Fatalf("Ways() = %d, want %d", ix.Ways(), ways)
				}
				if got, want := ix.ws4 != nil, ways == 4 && !mixed && rows <= WaySet4MaxRows; got != want {
					t.Fatalf("ways=%d rows=%d mixed=%t: packed table chosen = %t, want %t", ways, rows, mixed, got, want)
				}
				if got := ix.h3 != nil; got == mixed {
					t.Fatalf("ways=%d rows=%d mixed=%t: concrete H3 tables chosen = %t", ways, rows, mixed, got)
				}
				got, lazy := make([]uint64, ways), make([]uint64, ways)
				for _, addr := range addrs {
					ix.Rows(addr, got)
					for w, n := 0, 0; w < ways; w++ {
						if w == n {
							if n = ix.RowsFrom(w, addr, lazy); n <= w || n > ways {
								t.Fatalf("ways=%d rows=%d mixed=%t: RowsFrom(%d) computed up to way %d", ways, rows, mixed, w, n)
							}
						}
					}
					for w, f := range fns {
						want := f.Hash(addr)
						if got[w] != want {
							t.Fatalf("ways=%d rows=%d mixed=%t addr=%#x way %d: Rows %d, Hash %d", ways, rows, mixed, addr, w, got[w], want)
						}
						if r := ix.Row(w, addr); r != want {
							t.Fatalf("ways=%d rows=%d mixed=%t addr=%#x way %d: Row %d, Hash %d", ways, rows, mixed, addr, w, r, want)
						}
						if lazy[w] != want {
							t.Fatalf("ways=%d rows=%d mixed=%t addr=%#x way %d: RowsFrom %d, Hash %d", ways, rows, mixed, addr, w, lazy[w], want)
						}
					}
				}
			}
		}
	}
}
