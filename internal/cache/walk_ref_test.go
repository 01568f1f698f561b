package cache

import (
	"math/rand"
	"slices"
	"testing"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// This file keeps the pre-flattening walk as a test-only reference: the
// recursive-bookkeeping BFS Candidates and ExpandFrom bodies as they shipped
// before the frontier-array rewrite, less the repeat counting the walk no
// longer does. The property test drives randomized geometries through three
// caches — one walked flat, one walked flat over a slot table it does not own
// (NewZCacheOver), one walked by the reference — and asserts the emitted
// candidate sequences and tag/walk charges never diverge.

// refCandidates is the old BFS walk.
func refCandidates(z *ZCache, line uint64, buf []Candidate) []Candidate {
	start := len(buf)
	if z.repeatFilter != nil {
		z.repeatFilter.Reset()
	}
	for w := 0; w < z.tags.ways; w++ {
		row := z.idx.Row(w, line)
		id := z.tags.slot(w, row)
		c := Candidate{
			ID:     id,
			Addr:   z.tags.e[id],
			Valid:  z.tags.e[id] != EmptyLine,
			Way:    w,
			Row:    row,
			Level:  1,
			Parent: -1,
		}
		buf = append(buf, c)
		if !c.Valid {
			return buf
		}
		if z.repeatFilter != nil {
			z.repeatFilter.Add(c.Addr)
		}
	}
	levelStart, levelEnd := start, len(buf)
	for level := 2; level <= z.levels; level++ {
		var singleReads uint64
		for parent := levelStart; parent < levelEnd; parent++ {
			p := buf[parent]
			for w := 0; w < z.tags.ways; w++ {
				if w == p.Way {
					continue
				}
				if len(buf)-start >= z.maxCands {
					z.chargeWalk(singleReads)
					return buf
				}
				row := z.idx.Row(w, p.Addr)
				id := z.tags.slot(w, row)
				singleReads++
				c := Candidate{
					ID:     id,
					Addr:   z.tags.e[id],
					Valid:  z.tags.e[id] != EmptyLine,
					Way:    w,
					Row:    row,
					Level:  level,
					Parent: parent,
				}
				if c.Valid && z.repeatFilter != nil && z.repeatFilter.MayContain(c.Addr) {
					continue
				}
				buf = append(buf, c)
				if !c.Valid {
					z.chargeWalk(singleReads)
					return buf
				}
				if z.repeatFilter != nil {
					z.repeatFilter.Add(c.Addr)
				}
			}
		}
		z.chargeWalk(singleReads)
		levelStart, levelEnd = levelEnd, len(buf)
		if levelStart == levelEnd {
			break
		}
	}
	return buf
}

// refExpandFrom is the old hybrid second-phase expansion.
func refExpandFrom(z *ZCache, cands []Candidate, idx, extraLevels int) []Candidate {
	if idx < 0 || idx >= len(cands) || !cands[idx].Valid {
		return cands
	}
	start := len(cands)
	levelStart, levelEnd := idx, idx+1
	firstLevel := true
	for lvl := 0; lvl < extraLevels; lvl++ {
		var singleReads uint64
		for parent := levelStart; parent < levelEnd; parent++ {
			p := cands[parent]
			for w := 0; w < z.tags.ways; w++ {
				if w == p.Way {
					continue
				}
				if len(cands) >= 2*z.maxCands {
					z.chargeWalk(singleReads)
					return cands
				}
				row := z.idx.Row(w, p.Addr)
				id := z.tags.slot(w, row)
				singleReads++
				c := Candidate{
					ID:     id,
					Addr:   z.tags.e[id],
					Valid:  z.tags.e[id] != EmptyLine,
					Way:    w,
					Row:    row,
					Level:  p.Level + 1,
					Parent: parent,
				}
				cands = append(cands, c)
				if !c.Valid {
					z.chargeWalk(singleReads)
					return cands
				}
			}
		}
		z.chargeWalk(singleReads)
		if firstLevel {
			levelStart, firstLevel = start, false
		} else {
			levelStart = levelEnd
		}
		levelEnd = len(cands)
		if levelStart == levelEnd {
			break
		}
	}
	return cands
}

// walkGeom is one randomized trial configuration.
type walkGeom struct {
	ways    int
	rows    uint64
	levels  int
	seed    uint64
	budget  int // 0 = natural R, else at least ways
	bloom   bool
	expandL int // hybrid expansion depth (0 = never expand)
}

// newWalkArrays builds the trial's three arrays: a flat and a reference walk
// over their own tags, and a flat walk over table.
func newWalkArrays(t *testing.T, g walkGeom) (flat, ref, over *ZCache, table *slotTable) {
	t.Helper()
	build := func(table *slotTable) *ZCache {
		fns, err := (hash.H3Family{Seed: g.seed}).New(g.ways, g.rows)
		if err != nil {
			t.Fatal(err)
		}
		var opts []ZOption
		if g.bloom {
			opts = append(opts, WithRepeatAvoidance(8, 2))
		}
		var z *ZCache
		if table == nil {
			z, err = NewZCache(g.rows, fns, g.levels, opts...)
		} else {
			z, err = NewZCacheOver(table.words, slotWords, g.rows, fns, g.levels, opts...)
		}
		if err != nil {
			t.Fatal(err)
		}
		if g.budget > 0 {
			if err := z.SetWalkBudget(g.budget); err != nil {
				t.Fatal(err)
			}
		}
		return z
	}
	table = newSlotTable(g.ways * int(g.rows))
	return build(nil), build(nil), build(table), table
}

func compareCands(t *testing.T, g walkGeom, step int, stage string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%+v step %d %s: flat emitted %d candidates, reference %d",
			g, step, stage, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%+v step %d %s: candidate %d diverges:\nflat %+v\nref  %+v",
				g, step, stage, i, got[i], want[i])
		}
	}
}

// walkGeoms is the hand-picked geometry table of the flat ≡ reference
// property: every way count the fast paths distinguish (4 = packed WaySet4,
// others = per-way H3), budgets below R, the Bloom pruning extension and
// hybrid expansion depths. It is FuzzFlatWalk's seed corpus, so plain
// `go test` runs every row.
var walkGeoms = []walkGeom{
	{ways: 4, rows: 64, levels: 2, seed: 1, expandL: 1},
	{ways: 4, rows: 16, levels: 3, seed: 2, expandL: 2},
	{ways: 2, rows: 32, levels: 4, seed: 3, expandL: 1},
	{ways: 3, rows: 32, levels: 3, seed: 4, expandL: 2},
	{ways: 5, rows: 16, levels: 2, seed: 5, expandL: 1},
	{ways: 4, rows: 64, levels: 2, seed: 6, budget: 9, expandL: 1},
	{ways: 4, rows: 32, levels: 3, seed: 7, bloom: true},
	{ways: 2, rows: 16, levels: 5, seed: 8, budget: 7, expandL: 3},
	{ways: 8, rows: 16, levels: 2, seed: 9, expandL: 1},
	{ways: 4, rows: 128, levels: 2, seed: 10, bloom: true, expandL: 1},
}

// walkTrial drives three caches — identical geometry, seeds, and install
// decisions — through steps references, comparing the flat walks, over their
// own tags and over a slot table, against the reference implementation
// candidate for candidate and charge for charge at every step.
func walkTrial(t *testing.T, g walkGeom, steps int, rng *rand.Rand) {
	t.Helper()
	flat, ref, over, table := newWalkArrays(t, g)
	space := uint64(flat.Blocks()) * 3 // small: force conflicts and repeats
	var fbuf, rbuf, obuf []Candidate
	var before []uint64 // the table as the array found it
	for step := 0; step < steps; step++ {
		line := rng.Uint64() % space
		oid, ook := over.Lookup(line)
		if id, ok := flat.Lookup(line); ok {
			rid, rok := ref.Lookup(line)
			if !rok || rid != id || !ook || oid != id {
				t.Fatalf("%+v step %d: lookup diverges (flat %v/%v, ref %v/%v, over a table %v/%v)",
					g, step, id, ok, rid, rok, oid, ook)
			}
			continue
		}
		ref.Lookup(line) // keep demand charges aligned
		if ook {
			t.Fatalf("%+v step %d: line %#x hits slot %d of the table only", g, step, line, oid)
		}
		fbuf = flat.Candidates(line, fbuf[:0])
		obuf = over.Candidates(line, obuf[:0])
		rbuf = refCandidates(ref, line, rbuf[:0])
		compareCands(t, g, step, "walk", fbuf, rbuf)
		compareCands(t, g, step, "walk over a table", obuf, rbuf)

		// Hybrid second phase on a random valid candidate.
		if g.expandL > 0 && len(fbuf) > 0 && rng.Intn(4) == 0 {
			idx := rng.Intn(len(fbuf))
			fbuf = flat.ExpandFrom(fbuf, idx, g.expandL)
			obuf = over.ExpandFrom(obuf, idx, g.expandL)
			rbuf = refExpandFrom(ref, rbuf, idx, g.expandL)
			compareCands(t, g, step, "expand", fbuf, rbuf)
			compareCands(t, g, step, "expand over a table", obuf, rbuf)
		}

		if *flat.Counters() != *ref.Counters() || *over.Counters() != *ref.Counters() {
			t.Fatalf("%+v step %d: counters diverge:\nflat %+v\nover %+v\nref  %+v",
				g, step, *flat.Counters(), *over.Counters(), *ref.Counters())
		}

		// Install with an identical victim choice so the twin tag
		// arrays evolve through the same relocation chains: prefer
		// the empty slot like the controller, then random valid
		// candidates until one installs without a cuckoo cycle.
		var tries []int
		for i := range fbuf {
			if !fbuf[i].Valid {
				tries = append(tries, i)
				break
			}
		}
		for _, i := range rng.Perm(len(fbuf)) {
			if fbuf[i].Valid {
				tries = append(tries, i)
			}
		}
		before = append(before[:0], table.words...)
		for _, victim := range tries {
			fm, ferr := flat.Install(line, fbuf, victim)
			om, oerr := over.Install(line, obuf, victim)
			if !slices.Equal(table.words, before) {
				t.Fatalf("%+v step %d: Install over a slot table wrote to it", g, step)
			}
			rm, rerr := ref.Install(line, rbuf, victim)
			if (ferr == nil) != (rerr == nil) || (oerr == nil) != (rerr == nil) {
				t.Fatalf("%+v step %d: install error diverges: flat %v, over a table %v, ref %v",
					g, step, ferr, oerr, rerr)
			}
			if ferr != nil {
				continue // cuckoo cycle on all three: try the next candidate
			}
			if len(fm) != len(rm) || len(om) != len(rm) {
				t.Fatalf("%+v step %d: move chains diverge: flat %d, over a table %d, ref %d",
					g, step, len(fm), len(om), len(rm))
			}
			for i := range fm {
				if fm[i] != rm[i] || om[i] != rm[i] {
					t.Fatalf("%+v step %d: move %d diverges: flat %+v, over a table %+v, ref %+v",
						g, step, i, fm[i], om[i], rm[i])
				}
			}
			// The array over the table wrote nothing: apply the install
			// as its observer and its caller would.
			root := victim
			for obuf[root].Parent >= 0 {
				root = obuf[root].Parent
			}
			table.apply(om, obuf[root].ID, line)
			break
		}
	}
	// The tag arrays must agree exactly after hundreds of installs, or a
	// subtle walk divergence slipped through.
	for id := 0; id < flat.Blocks(); id++ {
		fe, oe, re := flat.tags.e[id], table.tag(repl.BlockID(id)), ref.tags.e[id]
		if fe != re || oe != re {
			t.Fatalf("%+v: tag slot %d diverges after trial: flat %#x, table %#x, ref %#x",
				g, id, fe, oe, re)
		}
	}
}

// TestFlatWalkMatchesReference runs the trial over fully random geometries
// (the hand-picked table is FuzzFlatWalk's seed corpus).
func TestFlatWalkMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for gi := 0; gi < 6; gi++ {
		g := walkGeom{
			ways:    2 + rng.Intn(5),
			rows:    uint64(1) << (4 + rng.Intn(4)),
			levels:  1 + rng.Intn(4),
			seed:    rng.Uint64(),
			expandL: rng.Intn(3),
		}
		if g.ways == 2 && g.levels > 4 {
			g.levels = 4
		}
		walkTrial(t, g, 400, rng)
	}
}

// FuzzFlatWalk is the same property over fuzzer-chosen geometries, seeded
// with the hand-picked table.
func FuzzFlatWalk(f *testing.F) {
	for _, g := range walkGeoms {
		args := [...]uint8{uint8(g.ways), uint8(log2u(g.rows)), uint8(g.levels), uint8(g.expandL)}
		if got := foldWalkGeom(args[0], args[1], args[2], g.seed, uint16(g.budget), g.bloom, args[3]); got != g {
			f.Fatalf("seed geometry %+v folds to %+v: the corpus no longer runs the table", g, got)
		}
		f.Add(args[0], args[1], args[2], g.seed, uint16(g.budget), g.bloom, args[3])
	}
	f.Fuzz(func(t *testing.T, ways, rowBits, levels uint8, seed uint64, budget uint16, bloom bool, expandL uint8) {
		g := foldWalkGeom(ways, rowBits, levels, seed, budget, bloom, expandL)
		walkTrial(t, g, 200, rand.New(rand.NewSource(int64(seed))))
	})
}

// foldWalkGeom folds arbitrary fuzz arguments into the ranges the
// constructors accept, kept small so one execution stays in the millisecond
// range. It is the identity on the rows of walkGeoms.
func foldWalkGeom(ways, rowBits, levels uint8, seed uint64, budget uint16, bloom bool, expandL uint8) walkGeom {
	g := walkGeom{
		ways:    2 + int(ways-2)%7,        // 2..8
		rows:    1 << (3 + (rowBits-3)%6), // 8..256
		levels:  1 + int(levels-1)%5,      // 1..5
		seed:    seed,
		budget:  int(budget % 64),
		bloom:   bloom,
		expandL: int(expandL % 4),
	}
	// 0 or ways..63: SetWalkBudget refuses a budget below the first level.
	if g.budget < g.ways {
		g.budget = 0
	}
	// Keep R(W, L) — the scratch every constructor preallocates — small.
	for g.levels > 1 && ReplacementCandidates(g.ways, g.levels) > 400 {
		g.levels--
	}
	return g
}

func log2u(v uint64) int {
	n := 0
	for ; v > 1; v >>= 1 {
		n++
	}
	return n
}
