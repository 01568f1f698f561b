package cache

import (
	"testing"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

func newVictim(t testing.TB, ways int, sets uint64, entries int) *VictimCache {
	t.Helper()
	idx, err := hash.NewBitSelect(0, sets)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVictimCache(ways, sets, entries, idx)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestVictimCacheCatchesConflictMisses(t *testing.T) {
	// Classic victim-cache win: a working set of 3 lines thrashing a
	// direct-mapped set gets rescued by the buffer.
	v := newVictim(t, 1, 8, 4)
	pol, _ := repl.NewLRU(v.Blocks())
	c, _ := New(v, pol, 6)
	lines := []uint64{0, 8, 16} // all map to set 0
	for round := 0; round < 100; round++ {
		for _, l := range lines {
			c.Access(l<<6, false)
		}
	}
	st := c.Stats()
	// Without the buffer every access would miss (3-way thrash in a
	// 1-way set). With it, only cold misses and the first few rounds.
	if st.Misses > 20 {
		t.Errorf("victim cache missed %d times; buffer not catching conflicts", st.Misses)
	}
	if v.VictimHits == 0 {
		t.Error("no victim-buffer hits recorded")
	}
}

func TestVictimCacheHotSetsExhaustBuffer(t *testing.T) {
	// §II-B's criticism: a sizable number of conflict misses in hot sets
	// overwhelms a small buffer.
	v := newVictim(t, 1, 8, 4)
	pol, _ := repl.NewLRU(v.Blocks())
	c, _ := New(v, pol, 6)
	// 12 lines in set 0: working set of 13 (set + buffer capacity is 5).
	for round := 0; round < 50; round++ {
		for i := uint64(0); i < 12; i++ {
			c.Access((i*8)<<6, false)
		}
	}
	st := c.Stats()
	if miss := float64(st.Misses) / float64(st.Accesses); miss < 0.9 {
		t.Errorf("hot-set thrash miss rate %.2f; expected buffer exhaustion (> 0.9)", miss)
	}
}

func TestVictimCacheLookupConsistency(t *testing.T) {
	// Buffer entries can be silently displaced (classical FIFO), so
	// "once resident, always hits until eviction" does not hold through
	// the buffer. The enforceable invariants: an access always leaves
	// its line resident, and no line is ever duplicated between the
	// main array and the buffer.
	v := newVictim(t, 2, 16, 8)
	pol, _ := repl.NewLRU(v.Blocks())
	c, _ := New(v, pol, 6)
	state := uint64(7)
	for i := 0; i < 30000; i++ {
		state = hash.Mix64(state)
		line := state % 128
		c.Access(line<<6, false)
		if !c.Contains(line << 6) {
			t.Fatalf("line %#x absent immediately after access", line)
		}
		if i%1000 == 0 {
			seen := map[uint64]int{}
			for _, tags := range [][]uint64{v.tags.e, v.vb} {
				for _, l := range tags {
					if l != EmptyLine {
						seen[l]++
					}
				}
			}
			for l, n := range seen {
				if n > 1 {
					t.Fatalf("line %#x present %d times across main+buffer", l, n)
				}
			}
		}
	}
}

func TestVictimCacheValidation(t *testing.T) {
	idx, _ := hash.NewBitSelect(0, 8)
	if _, err := NewVictimCache(1, 8, 0, idx); err == nil {
		t.Error("0-entry buffer accepted")
	}
	if _, err := NewVictimCache(0, 8, 4, idx); err == nil {
		t.Error("0 ways accepted")
	}
	idx16, _ := hash.NewBitSelect(0, 16)
	if _, err := NewVictimCache(1, 8, 4, idx16); err == nil {
		t.Error("mismatched index accepted")
	}
}

func newColumn(t testing.TB, rows uint64) *ColumnAssoc {
	t.Helper()
	fns, err := hash.H3Family{Seed: 91}.New(2, rows)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := NewColumnAssoc(rows, fns[0], fns[1])
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func TestColumnAssocBeatsDirectMapped(t *testing.T) {
	// Two lines conflicting in their primary slot coexist via the
	// secondary location.
	const rows = 64
	ca := newColumn(t, rows)
	pol, _ := repl.NewLRU(ca.Blocks())
	c, _ := New(ca, pol, 6)

	dmIdx, _ := hash.NewBitSelect(0, rows)
	dm, _ := NewSetAssoc(1, rows, dmIdx)
	dmPol, _ := repl.NewLRU(dm.Blocks())
	dc, _ := New(dm, dmPol, 6)

	// Find two lines with the same primary slot.
	h1 := ca.h1
	var a, b uint64
	target := h1.Hash(1)
	a = 1
	for l := uint64(2); ; l++ {
		if h1.Hash(l) == target && ca.h2.Hash(l) != ca.h2.Hash(a) {
			b = l
			break
		}
	}
	for round := 0; round < 100; round++ {
		c.Access(a<<6, false)
		c.Access(b<<6, false)
		dc.Access((a%rows)<<6, false) // same-set thrash for direct-mapped
		dc.Access(((a%rows)+rows)<<6, false)
	}
	if cm := c.Stats().Misses; cm > 10 {
		t.Errorf("column-associative missed %d times on a 2-line conflict", cm)
	}
	if dm := dc.Stats().Misses; dm < 150 {
		t.Errorf("direct-mapped missed only %d times; thrash expected", dm)
	}
	if ca.SecondaryHits == 0 {
		t.Error("no secondary hits recorded")
	}
}

func TestColumnAssocLookupConsistency(t *testing.T) {
	ca := newColumn(t, 128)
	pol, _ := repl.NewLRU(ca.Blocks())
	c, _ := New(ca, pol, 6)
	state := uint64(3)
	for i := 0; i < 30000; i++ {
		state = hash.Mix64(state)
		line := state % 512
		wasIn := c.Contains(line << 6)
		hit := c.Access(line<<6, false)
		if wasIn && !hit {
			t.Fatalf("resident line %#x missed (swap lost it)", line)
		}
	}
	// No duplicates.
	seen := map[uint64]bool{}
	for id, ent := range ca.tags.e {
		v := ent != EmptyLine
		if !v {
			continue
		}
		if seen[ca.tags.e[id]] {
			t.Fatalf("line %#x duplicated", ca.tags.e[id])
		}
		seen[ca.tags.e[id]] = true
	}
}

func TestColumnAssocValidation(t *testing.T) {
	fns, _ := hash.H3Family{Seed: 9}.New(2, 64)
	if _, err := NewColumnAssoc(63, fns[0], fns[1]); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
	same, _ := hash.NewBitSelect(0, 64)
	if _, err := NewColumnAssoc(64, same, same); err == nil {
		t.Error("identical hash functions accepted")
	}
}
