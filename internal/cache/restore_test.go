package cache

import (
	"testing"

	"zcache/internal/repl"
)

// slotTable stands in for zkv's slot headers: slotWords words per slot, the
// first of them the tag, the rest a record that travels with it. As the
// controller's SlotObserver it applies every tag change a zcache over it
// reports, the way internal/slotstore does for a shard.
type slotTable struct{ words []uint64 }

const slotWords = 4

func newSlotTable(slots int) *slotTable {
	t := &slotTable{words: make([]uint64, slots*slotWords)}
	for id := 0; id < slots; id++ {
		t.words[id*slotWords] = EmptyLine
	}
	return t
}

func (t *slotTable) tag(id repl.BlockID) uint64 { return t.words[int(id)*slotWords] }

// put writes line into slot id with a record derived from it.
func (t *slotTable) put(id repl.BlockID, line uint64) {
	rec := t.words[int(id)*slotWords:][:slotWords]
	for i := range rec {
		rec[i] = line + uint64(i)
	}
}

func (t *slotTable) SlotEvicted(id repl.BlockID, _ uint64, _ bool) {
	t.words[int(id)*slotWords] = EmptyLine
}

func (t *slotTable) SlotMoved(from, to repl.BlockID) {
	copy(t.words[int(to)*slotWords:][:slotWords], t.words[int(from)*slotWords:])
	t.words[int(from)*slotWords] = EmptyLine
}

// apply performs a zcache install over the table as the controller and its
// observer would: the moves from the victim upward, then the incoming line.
func (t *slotTable) apply(moves []Move, root repl.BlockID, line uint64) {
	for _, m := range moves {
		t.SlotMoved(m.From, m.To)
	}
	t.put(root, line)
}

// newTableCache builds an LRU controller over a zcache over table, with the
// table attached as its slot observer.
func newTableCache(t *testing.T, table *slotTable, rows uint64, ways, levels int) (*Cache, *ZCache) {
	t.Helper()
	z, err := NewZCacheOver(table.words, slotWords, rows, mkFns(t, ways, rows, 42), levels)
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
	c.SetSlotObserver(table)
	return c, z
}

// access is one reference through c, writing a missed line into the slot it
// was installed in, as zkv's Set does.
func (t *slotTable) access(c *Cache, line uint64) {
	if id, hit := c.AccessSlot(line, false); !hit {
		t.put(id, line)
	}
}

// TestRestoreServesExactSlots fills a cache over a slot table, hands a copy
// of the table to a fresh controller of the same geometry — a warm reopen —
// and restores it. Every line must be served from its recorded slot, with
// its record, and the restore must count no hits.
func TestRestoreServesExactSlots(t *testing.T) {
	t1 := newSlotTable(64 * 4)
	c1, _ := newTableCache(t, t1, 64, 4, 2)
	for line := uint64(1); line <= 300; line++ {
		t1.access(c1, line)
	}
	if c1.Stats().Evictions == 0 {
		t.Fatal("the fill evicted nothing")
	}
	t2 := &slotTable{words: append([]uint64(nil), t1.words...)}
	c2, _ := newTableCache(t, t2, 64, 4, 2)
	if err := c2.Restore(); err != nil {
		t.Fatal(err)
	}
	resident := 0
	for id := repl.BlockID(0); int(id) < len(t2.words)/slotWords; id++ {
		line := t2.tag(id)
		if line == EmptyLine {
			continue
		}
		resident++
		got, ok := c2.Peek(line)
		if !ok || got != id || t2.words[int(id)*slotWords+3] != line+3 {
			t.Fatalf("line %#x at slot %d, %t; recorded in slot %d", line, got, ok, id)
		}
	}
	if resident == 0 || c2.Stats().Hits != 0 {
		t.Fatalf("%d lines restored with %d hits", resident, c2.Stats().Hits)
	}
}

func TestRestoreRejectsIllegalPlacements(t *testing.T) {
	table := newSlotTable(16 * 4)
	c, z := newTableCache(t, table, 16, 4, 2)
	// A line in a slot it does not hash to.
	legal := map[repl.BlockID]bool{}
	for w := 0; w < z.Indexer().Ways(); w++ {
		legal[z.tags.slot(w, z.idx.Row(w, 99))] = true
	}
	for id := repl.BlockID(0); int(id) < z.Blocks(); id++ {
		if !legal[id] {
			table.put(id, 99)
			break
		}
	}
	if err := c.Restore(); err == nil {
		t.Error("Restore accepted a line outside its own slots")
	}
	// One line in two of its own slots.
	table = newSlotTable(16 * 4)
	c, _ = newTableCache(t, table, 16, 4, 2)
	for w := 0; w < 2; w++ {
		table.put(z.tags.slot(w, z.idx.Row(w, 99)), 99)
	}
	if err := c.Restore(); err == nil {
		t.Error("Restore accepted a line resident twice")
	}
	// Only a zcache array has a table to restore.
	sk, err := NewSkew(16, mkFns(t, 4, 16, 42))
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := repl.NewLRU(sk.Blocks())
	cs, _ := New(sk, pol, 0)
	if err := cs.Restore(); err == nil {
		t.Error("Restore of a skew-associative array succeeded")
	}
}

// TestRestoreFeedsPolicy checks restored blocks are replaceable: after a
// restore of a full table, further accesses must still be able to install
// (the policy knows every slot), and the table stays one line per slot.
func TestRestoreFeedsPolicy(t *testing.T) {
	rows := uint64(8)
	t1 := newSlotTable(int(rows) * 2)
	c1, _ := newTableCache(t, t1, rows, 2, 2)
	for line := uint64(1); line <= 200; line++ {
		t1.access(c1, line)
	}
	t2 := &slotTable{words: append([]uint64(nil), t1.words...)}
	c2, _ := newTableCache(t, t2, rows, 2, 2)
	if err := c2.Restore(); err != nil {
		t.Fatal(err)
	}
	// New traffic through the full restored cache must evict, not wedge.
	for line := uint64(1000); line < 1100; line++ {
		t2.access(c2, line)
	}
	if c2.Stats().Evictions == 0 {
		t.Fatal("no evictions through a fully restored cache")
	}
	seen := map[uint64]bool{}
	for id := repl.BlockID(0); int(id) < int(rows)*2; id++ {
		line := t2.tag(id)
		if line == EmptyLine {
			continue
		}
		if at, ok := c2.Peek(line); seen[line] || !ok || at != id {
			t.Fatalf("line %#x in slot %d: probe finds slot %d, %t (seen before: %t)", line, id, at, ok, seen[line])
		}
		seen[line] = true
	}
}
