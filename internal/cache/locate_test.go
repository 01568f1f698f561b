package cache

import (
	"math/rand"
	"testing"

	"zcache/internal/check"
	"zcache/internal/repl"
)

// locateSpecs are the tag-store designs Locate and LineAt serve: the
// simulator's five L2 organizations at a small geometry.
var locateSpecs = []Spec{
	{Org: OrgSetAssoc, Ways: 4, Rows: 64},
	{Org: OrgSetAssocHashed, Ways: 4, Rows: 64, Seed: 3},
	{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 1, Seed: 3},
	{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 2, Seed: 3},
	{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 3, Seed: 3},
}

// TestLocateIsACounterNeutralLookup drives three identical controllers with
// one random stream: probed answers every step's Locate of a random line,
// peeked the same Peek (its Lookup), and plain nothing. Locate must find
// what Lookup finds, in the slot LineAt reads back; probed must stay
// indistinguishable from plain in every Access outcome, Counters, Stats and
// tag; and a zcache's stream must relocate lines, so entries are found after
// moves.
func TestLocateIsACounterNeutralLookup(t *testing.T) {
	for _, spec := range locateSpecs {
		t.Run(spec.Label(), func(t *testing.T) {
			build := func() *Cache {
				c, err := spec.NewCache(repl.KindBucketedLRU, 5, 6)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			probed, peeked, plain := build(), build(), build()
			universe := 3 * probed.Array().Blocks()
			rng := rand.New(rand.NewSource(int64(spec.Org)<<8 | int64(spec.Levels)))
			for step := 0; step < 20000; step++ {
				addr := uint64(rng.Intn(universe)) << 6
				id, ok := probed.Locate(addr)
				pid, pok := peeked.Peek(addr)
				if ok != pok || (ok && id != pid) {
					t.Fatalf("step %d: Locate(%#x) = %d, %t; Lookup = %d, %t", step, addr, id, ok, pid, pok)
				}
				if line, held := probed.LineAt(id); ok && (!held || line != addr>>6) {
					t.Fatalf("step %d: Locate(%#x) = slot %d, which holds %#x (%t)", step, addr, id, line, held)
				}

				addr, write := uint64(rng.Intn(universe))<<6, rng.Intn(4) == 0
				id, hit := probed.AccessSlot(addr, write)
				wantID, wantHit := plain.AccessSlot(addr, write)
				peeked.Access(addr, write)
				if id != wantID || hit != wantHit {
					t.Fatalf("step %d: Access(%#x) = %d, %t after probes; %d, %t without", step, addr, id, hit, wantID, wantHit)
				}
			}
			if probed.Counters() != plain.Counters() || probed.Stats() != plain.Stats() {
				t.Fatalf("probes moved the accounting:\n %+v %+v\n %+v %+v",
					probed.Counters(), probed.Stats(), plain.Counters(), plain.Stats())
			}
			if spec.WalkLevels() > 1 && probed.Counters().Relocations == 0 {
				t.Fatal("stream never relocated a line")
			}
			resident := 0
			for id := repl.BlockID(0); int(id) < probed.Array().Blocks(); id++ {
				line, ok := probed.LineAt(id)
				want, wantOK := plain.LineAt(id)
				if line != want || ok != wantOK {
					t.Fatalf("slot %d holds %#x (%t), want %#x (%t)", id, line, ok, want, wantOK)
				}
				if !ok {
					continue
				}
				resident++
				if at, found := probed.Locate(line << 6); !found || at != id {
					t.Fatalf("line %#x in slot %d located at %d, %t", line, id, at, found)
				}
			}
			if resident == 0 {
				t.Fatal("no resident lines")
			}
			addr := uint64(rng.Intn(universe)) << 6
			if allocs := testing.AllocsPerRun(1000, func() { probed.Locate(addr) }); allocs != 0 {
				t.Fatalf("Locate allocates %.2f objects per call", allocs)
			}
		})
	}
}

// TestLocateRefusesUntaggedArrays: an array without a tag store has no slot
// Locate or LineAt could read, and both say so instead of guessing.
func TestLocateRefusesUntaggedArrays(t *testing.T) {
	c, err := Spec{Org: OrgFullyAssoc, Ways: 4, Rows: 16}.NewCache(repl.KindLRU, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	for name, probe := range map[string]func(){
		"Locate": func() { c.Locate(64) },
		"LineAt": func() { c.LineAt(0) },
	} {
		func() {
			defer func() {
				v, ok := recover().(*check.Violation)
				if !ok || v.Invariant != "cache/no-tag-store" {
					t.Errorf("%s on %s: recovered %v, want a cache/no-tag-store violation", name, c.Array().Name(), v)
				}
			}()
			probe()
		}()
	}
}
