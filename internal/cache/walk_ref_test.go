package cache

import (
	"math/rand"
	"testing"

	"zcache/internal/hash"
)

// This file keeps the pre-flattening walk as a test-only reference: the
// recursive-bookkeeping BFS Candidates and ExpandFrom bodies exactly as they
// shipped before the frontier-array rewrite, with their own uint64 seen
// stamps. The property test drives randomized geometries through twin caches
// — one walked flat, one walked by the reference — and asserts the emitted
// candidate sequences, repeat counts, and tag/walk charges never diverge.

// refWalkState is the reference walk's repeat-detection bookkeeping, held
// outside the ZCache so the reference never touches the flat walk's state.
type refWalkState struct {
	seen    []uint64
	epoch   uint64
	repeats uint64
}

// refCandidates is the old BFS walk, verbatim except that seen/epoch/repeats
// live in st.
func refCandidates(z *ZCache, st *refWalkState, line uint64, buf []Candidate) []Candidate {
	start := len(buf)
	if z.repeatFilter != nil {
		z.repeatFilter.Reset()
	}
	st.epoch++
	for w := 0; w < z.tags.ways; w++ {
		row := z.idx.Row(w, line)
		id := z.tags.slot(w, row)
		c := Candidate{
			ID:     id,
			Addr:   z.tags.e[id].addr,
			Valid:  z.tags.e[id].valid,
			Way:    w,
			Row:    row,
			Level:  1,
			Parent: -1,
		}
		buf = append(buf, c)
		st.seen[id] = st.epoch
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
					Addr:   z.tags.e[id].addr,
					Valid:  z.tags.e[id].valid,
					Way:    w,
					Row:    row,
					Level:  level,
					Parent: parent,
				}
				if st.seen[id] == st.epoch {
					st.repeats++
				}
				if c.Valid && z.repeatFilter != nil && z.repeatFilter.MayContain(c.Addr) {
					continue
				}
				buf = append(buf, c)
				st.seen[id] = st.epoch
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

// refExpandFrom is the old hybrid second-phase expansion, verbatim under the
// same state relocation as refCandidates.
func refExpandFrom(z *ZCache, st *refWalkState, cands []Candidate, idx, extraLevels int) []Candidate {
	if idx < 0 || idx >= len(cands) || !cands[idx].Valid {
		return cands
	}
	start := len(cands)
	st.epoch++
	for i := range cands {
		st.seen[cands[i].ID] = st.epoch
	}
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
					Addr:   z.tags.e[id].addr,
					Valid:  z.tags.e[id].valid,
					Way:    w,
					Row:    row,
					Level:  p.Level + 1,
					Parent: parent,
				}
				if st.seen[id] == st.epoch {
					st.repeats++
				}
				cands = append(cands, c)
				st.seen[id] = st.epoch
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
	budget  int // 0 = natural R
	bloom   bool
	expandL int // hybrid expansion depth (0 = never expand)
}

func newWalkPair(t *testing.T, g walkGeom) (*ZCache, *ZCache, *refWalkState) {
	t.Helper()
	build := func() *ZCache {
		fns, err := (hash.H3Family{Seed: g.seed}).New(g.ways, g.rows)
		if err != nil {
			t.Fatal(err)
		}
		var opts []ZOption
		if g.budget > 0 {
			opts = append(opts, WithMaxCandidates(g.budget))
		}
		if g.bloom {
			opts = append(opts, WithRepeatAvoidance(8, 2))
		}
		z, err := NewZCache(g.rows, fns, g.levels, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return z
	}
	flat, ref := build(), build()
	st := &refWalkState{seen: make([]uint64, ref.Blocks())}
	return flat, ref, st
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

// walkTrial drives twin caches — identical geometry, seeds, and install
// decisions — through steps references, comparing the flat walk against the
// reference implementation candidate for candidate, charge for charge and
// repeat for repeat at every step. It returns the flat cache for white-box
// checks on what the trial exercised.
func walkTrial(t *testing.T, g walkGeom, steps int, rng *rand.Rand) *ZCache {
	t.Helper()
	flat, ref, st := newWalkPair(t, g)
	space := uint64(flat.Blocks()) * 3 // small: force conflicts and repeats
	var fbuf, rbuf []Candidate
	for step := 0; step < steps; step++ {
		line := rng.Uint64() % space
		if id, ok := flat.Lookup(line); ok {
			rid, rok := ref.Lookup(line)
			if !rok || rid != id {
				t.Fatalf("%+v step %d: lookup diverges (flat %v/%v, ref %v/%v)",
					g, step, id, ok, rid, rok)
			}
			continue
		}
		ref.Lookup(line) // keep demand charges aligned
		fbuf = flat.Candidates(line, fbuf[:0])
		rbuf = refCandidates(ref, st, line, rbuf[:0])
		compareCands(t, g, step, "walk", fbuf, rbuf)

		// Hybrid second phase on a random valid candidate.
		if g.expandL > 0 && len(fbuf) > 0 && rng.Intn(4) == 0 {
			idx := rng.Intn(len(fbuf))
			fbuf = flat.ExpandFrom(fbuf, idx, g.expandL)
			rbuf = refExpandFrom(ref, st, rbuf, idx, g.expandL)
			compareCands(t, g, step, "expand", fbuf, rbuf)
		}

		if flat.Repeats() != st.repeats {
			t.Fatalf("%+v step %d: repeats diverge: flat %d, ref %d",
				g, step, flat.Repeats(), st.repeats)
		}
		if *flat.Counters() != *ref.Counters() {
			t.Fatalf("%+v step %d: counters diverge:\nflat %+v\nref  %+v",
				g, step, *flat.Counters(), *ref.Counters())
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
		for _, victim := range tries {
			fm, ferr := flat.Install(line, fbuf, victim)
			rm, rerr := ref.Install(line, rbuf, victim)
			if (ferr == nil) != (rerr == nil) {
				t.Fatalf("%+v step %d: install error diverges: flat %v, ref %v",
					g, step, ferr, rerr)
			}
			if ferr != nil {
				continue // cuckoo cycle on both: try the next candidate
			}
			if len(fm) != len(rm) {
				t.Fatalf("%+v step %d: move chains diverge: flat %d, ref %d",
					g, step, len(fm), len(rm))
			}
			for i := range fm {
				if fm[i] != rm[i] {
					t.Fatalf("%+v step %d: move %d diverges: flat %+v, ref %+v",
						g, step, i, fm[i], rm[i])
				}
			}
			break
		}
	}
	// The twin tag arrays must agree exactly after hundreds of
	// installs, or a subtle walk divergence slipped through. The
	// architectural tag is (addr, valid); the flat walk's epoch
	// stamps share the entry and the reference keeps its own.
	for id := 0; id < flat.Blocks(); id++ {
		fe, re := flat.tags.e[id], ref.tags.e[id]
		if fe.addr != re.addr || fe.valid != re.valid {
			t.Fatalf("%+v: tag slot %d diverges after trial: flat %+v, ref %+v",
				g, id, fe, re)
		}
	}
	return flat
}

// TestFlatWalkMatchesReference runs the trial over fully random geometries
// (the hand-picked table is FuzzFlatWalk's seed corpus) and then for more
// than 65 536 walks on one small array, so bumpEpoch's wraparound clear of
// the 16-bit stamps executes with Repeats() still compared step by step.
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

	// A third of the references hit, and every miss walks (an expansion
	// bumps the epoch too): 120 000 steps is past the wrap with room.
	flat := walkTrial(t, walkGeom{ways: 4, rows: 16, levels: 2, seed: 11, expandL: 1}, 120_000, rng)
	if flat.walkEpoch <= 1<<16 {
		t.Fatalf("long trial ended at walk epoch %d: the stamp wraparound never ran", flat.walkEpoch)
	}
	if flat.Repeats() == 0 {
		t.Fatal("long trial on a 64-slot array saw no repeats: the stamps detect nothing")
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
