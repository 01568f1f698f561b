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
// The two tags-only comparators swap lines inside Lookup without telling
// the controller, so there a swap leaves the bits with their slots (the
// comparators' documented simplification), and the model follows suit.
func TestDirtyBitsFollowLines(t *testing.T) {
	for _, spec := range []Spec{
		{Org: OrgSetAssoc, Ways: 4, Rows: 64},
		{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 1, Seed: 3},
		{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 2, Seed: 3},
		{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 3, Seed: 3},
		{Org: OrgColumnAssoc, Ways: 1, Rows: 256, Seed: 3},
		{Org: OrgVictimCache, Ways: 4, Rows: 64},
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
		before := make([]uint64, c.Array().Blocks())
		moved := map[uint64]bool{}
		state := uint64(0x5eed)
		for step := 0; step < 20_000; step++ {
			state = hash.Mix64(state)
			line := state % 2048 // 2048 lines over 256 slots
			if state>>60 < 10 {
				line = state >> 32 % 64 // a hot set, so writes meet resident lines
			}
			write := state>>16%10 < 3
			for id := range before {
				before[id] = tags.at(repl.BlockID(id))
			}
			if c.Access(line<<6, write) {
				// A hit that changed slots swapped them inside Lookup:
				// each changed slot's new line takes the bit its old
				// line left there, and a line that left every slot (into
				// the victim buffer) leaves the model.
				clear(moved)
				for id, old := range before {
					if now := tags.at(repl.BlockID(id)); now != old && now != EmptyLine {
						moved[now] = shadow[old]
					}
				}
				for id, old := range before {
					if tags.at(repl.BlockID(id)) != old {
						delete(shadow, old)
					}
				}
				for l, d := range moved {
					shadow[l] = d
				}
				shadow[line] = shadow[line] || write
			} else {
				shadow[line] = write
			}
			resident := 0
			for id := range before {
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
		if spec.WalkLevels() > 1 || spec.Org == OrgColumnAssoc || spec.Org == OrgVictimCache {
			if ctr.Relocations == 0 {
				t.Errorf("%s: no line ever moved", name)
			}
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
	case *ColumnAssoc:
		return &a.tags
	case *VictimCache:
		return &a.tags
	}
	panic("slotTags: " + a.Name() + " has no tag store")
}
