package cache

import (
	"testing"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// TestDirtyBitsFollowLines drives a seeded read/write stream through every
// array with per-slot dirty bits and checks them against a shadow model
// keyed by line: a write marks its line dirty, an install starts it clean or
// dirty as the access was, and a relocation chain carries every moved
// line's bit with it. After every access each resident line's DirtyAt must
// be the shadow's bit, and every OnEviction must report the evicted line's.
// No array moves a line except through Install's moves or a reported
// eviction, so a hit leaves every line where it was.
func TestDirtyBitsFollowLines(t *testing.T) {
	for _, spec := range []Spec{
		{Org: OrgSetAssoc, Ways: 4, Rows: 64},
		{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 1, Seed: 3},
		{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 2, Seed: 3},
		{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 3, Seed: 3},
	} {
		c, err := spec.NewCache(repl.KindLRU, 1, 6)
		if err != nil {
			t.Fatal(err)
		}
		name := c.Array().Name()
		tags := slotTags(c.Array())
		shadow := map[uint64]bool{}
		c.OnEviction = func(addr uint64, dirty bool) {
			line := addr >> 6
			want, ok := shadow[line]
			if !ok || dirty != want {
				t.Fatalf("%s: OnEviction(%#x, dirty %t), shadow holds %t (tracked %t)", name, line, dirty, want, ok)
			}
			delete(shadow, line)
		}
		state := uint64(0x5eed)
		for step := 0; step < 20_000; step++ {
			state = hash.Mix64(state)
			line := state % 2048 // 2048 lines over 256 slots
			if state>>60 < 10 {
				line = state >> 32 % 64 // a hot set, so writes meet resident lines
			}
			write := state>>16%10 < 3
			if c.Access(line<<6, write) {
				shadow[line] = shadow[line] || write
			} else {
				shadow[line] = write
			}
			resident := 0
			for id := 0; id < c.Array().Blocks(); id++ {
				l := tags.at(repl.BlockID(id))
				if l == EmptyLine {
					continue
				}
				resident++
				if d, ok := shadow[l]; !ok || c.DirtyAt(repl.BlockID(id)) != d {
					t.Fatalf("%s step %d: slot %d holds line %#x with dirty %t, shadow holds %t (tracked %t)",
						name, step, id, l, c.DirtyAt(repl.BlockID(id)), d, ok)
				}
			}
			if resident != len(shadow) {
				t.Fatalf("%s step %d: %d resident lines, shadow tracks %d", name, step, resident, len(shadow))
			}
		}
		st, ctr := c.Stats(), c.Counters()
		if st.Writebacks == 0 {
			t.Errorf("%s: no dirty line was ever evicted", name)
		}
		if spec.WalkLevels() > 1 && ctr.Relocations == 0 {
			t.Errorf("%s: no line ever moved", name)
		}
	}
}

// slotTags returns the tag store behind a tag-store array's slots.
func slotTags(a Array) *tagStore {
	switch a := a.(type) {
	case *SetAssoc:
		return &a.tags
	case *ZCache:
		return &a.tags
	}
	panic("slotTags: " + a.Name() + " has no tag store")
}
