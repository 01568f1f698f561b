package cache

import (
	"testing"

	"zcache/internal/repl"
)

func newAdoptCache(t *testing.T, rows uint64, ways, levels int) (*Cache, *ZCache) {
	t.Helper()
	fns := mkFns(t, ways, rows, 42)
	z, err := NewZCache(rows, fns, levels)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := repl.NewLRU(z.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(z, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, z
}

// TestAdoptRestoresExactSlots fills a cache, records every line's slot,
// rebuilds a fresh cache with the same geometry, and adopts each (slot,
// line) pair back — the warm-restart replay. Every line must land in its
// recorded slot and be servable as a hit.
func TestAdoptRestoresExactSlots(t *testing.T) {
	c1, _ := newAdoptCache(t, 64, 4, 2)
	type placed struct {
		id   repl.BlockID
		line uint64
	}
	var snapshot []placed
	for line := uint64(1); line <= 100; line++ {
		id, _ := c1.AccessSlot(line, false)
		snapshot = append(snapshot, placed{id, line})
	}
	// Keep only the lines still resident (later installs evicted some),
	// at their final slots.
	final := map[uint64]repl.BlockID{}
	for _, p := range snapshot {
		if id, ok := c1.Peek(p.line); ok {
			final[p.line] = id
		}
	}
	if len(final) == 0 {
		t.Fatal("nothing stayed resident")
	}

	c2, _ := newAdoptCache(t, 64, 4, 2)
	for line, id := range final {
		if err := c2.Adopt(id, line); err != nil {
			t.Fatalf("Adopt(%d, %#x): %v", id, line, err)
		}
	}
	for line, id := range final {
		got, ok := c2.Peek(line)
		if !ok || got != id {
			t.Fatalf("line %#x at slot %d, %t; want slot %d", line, got, ok, id)
		}
	}
	if hits := c2.Stats().Hits; hits != 0 {
		t.Fatalf("adoption counted %d hits", hits)
	}
	if !c2.Access(1, false) {
		t.Fatal("adopted line did not hit")
	}
}

func TestAdoptRejectsIllegalPlacements(t *testing.T) {
	c, z := newAdoptCache(t, 16, 4, 2)
	id, _ := c.AccessSlot(7, false)
	// Occupied slot.
	if err := c.Adopt(id, 1234); err == nil {
		t.Error("Adopt into an occupied slot succeeded")
	}
	// Already-resident line (even at another legal slot).
	if err := c.Adopt(id+1, 7); err == nil {
		t.Error("Adopt of an already-resident line succeeded")
	}
	// Out-of-range slot.
	if err := c.Adopt(repl.BlockID(z.Blocks()), 99); err == nil {
		t.Error("Adopt out of range succeeded")
	}
	// A slot the line does not hash to: find one empty slot that is not
	// among line 99's per-way slots.
	legal := map[repl.BlockID]bool{}
	for w := 0; w < z.Ways(); w++ {
		legal[z.tags.slot(w, z.idx.Row(w, 99))] = true
	}
	for id := 0; id < z.Blocks(); id++ {
		bid := repl.BlockID(id)
		if legal[bid] || z.tags.e[bid].valid {
			continue
		}
		if err := c.Adopt(bid, 99); err == nil {
			t.Errorf("Adopt(%d, 99) into a foreign slot succeeded", bid)
		}
		break
	}
}

// TestAdoptFeedsPolicy checks adopted blocks are replaceable: after
// adoption fills the whole array, further accesses must still be able to
// install (the policy knows every slot).
func TestAdoptFeedsPolicy(t *testing.T) {
	rows := uint64(8)
	c1, _ := newAdoptCache(t, rows, 2, 2)
	for line := uint64(1); line <= 200; line++ {
		c1.Access(line, false)
	}
	resident := map[uint64]repl.BlockID{}
	for line := uint64(1); line <= 200; line++ {
		if id, ok := c1.Peek(line); ok {
			resident[line] = id
		}
	}
	c2, _ := newAdoptCache(t, rows, 2, 2)
	for line, id := range resident {
		if err := c2.Adopt(id, line); err != nil {
			t.Fatalf("Adopt(%d, %#x): %v", id, line, err)
		}
	}
	// New traffic through the full adopted cache must evict, not wedge.
	for line := uint64(1000); line < 1100; line++ {
		c2.Access(line, false)
	}
	if c2.Stats().Evictions == 0 {
		t.Fatal("no evictions through a fully adopted cache")
	}
}
