package cache

import (
	"math/rand"
	"testing"

	"zcache/internal/repl"
)

// This file pins, as digests, behaviour no other test fixes exactly: the
// skew-associative controller's hits, evictions and counts, and the
// candidate sequences of the DFS walk and of the hybrid second phase
// (ExpandFrom) over walkGeoms, FuzzFlatWalk's geometry table. The flat ≡
// reference property compares two implementations with each other; these
// digests compare one implementation with its own past, so a change that
// moves both sides at once still shows up.

// walkDigest is FNV-1a over 64-bit words.
type walkDigest uint64

func (d *walkDigest) add(v uint64) { *d = (*d ^ walkDigest(v)) * 1099511628211 }

// cands folds a candidate list. An empty slot's Addr is not architectural
// (Candidate.Addr is meaningless when !Valid), so it stays out.
func (d *walkDigest) cands(cs []Candidate) {
	d.add(uint64(len(cs)))
	for _, c := range cs {
		d.add(uint64(c.ID))
		d.add(b2u(c.Valid))
		if c.Valid {
			d.add(c.Addr)
		}
		d.add(uint64(c.Way))
		d.add(c.Row)
		d.add(uint64(c.Level))
		d.add(uint64(int64(c.Parent)))
	}
}

// pinWalk drives one zcache of geometry g through steps references and
// digests every candidate list, relocation chain and, at the end, the
// counters and every slot's contents. expandL > 0 runs the hybrid second
// phase below a random valid candidate on every miss. Victims are drawn from
// a seeded stream, preferring an empty slot, and a cuckoo cycle moves on to
// the next draw.
func pinWalk(t *testing.T, g walkGeom, strategy WalkStrategy, expandL, steps int) walkDigest {
	t.Helper()
	opts := []ZOption{WithWalkStrategy(strategy)}
	if g.bloom {
		opts = append(opts, WithRepeatAvoidance(8, 2))
	}
	z, err := NewZCache(g.rows, mkFns(t, g.ways, g.rows, g.seed), g.levels, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if g.budget > 0 {
		if err := z.SetWalkBudget(g.budget); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(int64(g.seed)))
	space := uint64(z.Blocks()) * 3
	var d walkDigest
	var buf []Candidate
	for step := 0; step < steps; step++ {
		line := rng.Uint64() % space
		if _, ok := z.Lookup(line); ok {
			continue
		}
		buf = z.Candidates(line, buf[:0])
		d.cands(buf)
		if expandL > 0 {
			var valid []int
			for i := range buf {
				if buf[i].Valid {
					valid = append(valid, i)
				}
			}
			if len(valid) > 0 {
				buf = z.ExpandFrom(buf, valid[rng.Intn(len(valid))], expandL)
				d.cands(buf)
			}
		}
		var tries []int
		for i := range buf {
			if !buf[i].Valid {
				tries = append(tries, i)
				break
			}
		}
		for _, i := range rng.Perm(len(buf)) {
			if buf[i].Valid {
				tries = append(tries, i)
			}
		}
		for _, victim := range tries {
			moves, err := z.Install(line, buf, victim)
			if err != nil {
				d.add(^uint64(0))
				continue
			}
			d.add(uint64(victim))
			for _, m := range moves {
				d.add(uint64(m.From)<<32 | uint64(m.To))
			}
			break
		}
	}
	ctr := *z.Counters()
	for _, v := range []uint64{ctr.TagLookups, ctr.WalkLookups, ctr.TagReads, ctr.TagWrites,
		ctr.DataReads, ctr.DataWrites, ctr.Relocations} {
		d.add(v)
	}
	for id := 0; id < z.Blocks(); id++ {
		addr, ok := z.SlotLine(repl.BlockID(id))
		d.add(b2u(ok))
		if ok {
			d.add(addr)
		}
	}
	return d
}

// TestWalkDigestsPinned checks the DFS and hybrid digests of every walkGeoms
// row against the values recorded when the pin was taken.
func TestWalkDigestsPinned(t *testing.T) {
	want := []struct{ dfs, hybrid walkDigest }{
		{0x8dd901a992fce35c, 0x7e236fba6b4a2e73},
		{0xf1a0de36a0cb3d0c, 0xc9047871fcc46786},
		{0xf57a8a024f09f6b5, 0x9b8fff03c7154878},
		{0xeb3ddb0da6a7de59, 0x0c49caffe5f510fc},
		{0x44e4e1831ddfd7e2, 0x3c59aa2aec9c7019},
		{0xd683fc5d25afde5a, 0x456bcd20b086d43f},
		{0x342d1b40984c2fae, 0x40ea99f2a44eb5be},
		{0xb0cd2fe9ef9328fe, 0x43ed556fe46b1389},
		{0x64493fdbbdf388f6, 0x7d68935439efa439},
		{0x137844921cd52ed7, 0xceddd5a6842080ce},
	}
	if len(want) != len(walkGeoms) {
		t.Fatalf("%d pinned rows for %d geometries", len(want), len(walkGeoms))
	}
	for i, g := range walkGeoms {
		dfs := pinWalk(t, g, WalkDFS, 0, 600)
		hybrid := pinWalk(t, g, WalkBFS, max(g.expandL, 1), 600)
		if dfs != want[i].dfs || hybrid != want[i].hybrid {
			t.Errorf("%+v: digests {%#x, %#x}, pinned {%#x, %#x}", g, uint64(dfs), uint64(hybrid),
				uint64(want[i].dfs), uint64(want[i].hybrid))
		}
	}
}

// pinSkew drives a controller over a ways-way skew-associative array of 1024
// blocks with policy k through steps seeded references (a fifth of them
// writes, every 97th an invalidation) and digests every hit and slot, every
// eviction with its dirtiness, in order, and at the end the array's Counters
// and the controller's Stats. generic forces the candidate/select/install
// miss path instead of the flat one.
func pinSkew(t *testing.T, ways int, k repl.Kind, generic bool, steps int) walkDigest {
	t.Helper()
	const blocks = 1024
	rows := uint64(blocks / ways)
	arr, err := NewSkew(rows, mkFns(t, ways, rows, 31))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := k.New(blocks, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(arr, pol, 6)
	if err != nil {
		t.Fatal(err)
	}
	c.noFastPath = generic
	var d walkDigest
	c.OnEviction = func(addr uint64, dirty bool) { d.add(addr<<1 | b2u(dirty)) }
	rng := rand.New(rand.NewSource(int64(ways)))
	for step := 0; step < steps; step++ {
		addr := uint64(rng.Intn(2*blocks)) << 6
		if step%97 == 96 {
			present, dirty := c.Invalidate(addr)
			d.add(b2u(present)<<1 | b2u(dirty))
			continue
		}
		id, hit := c.AccessSlot(addr, rng.Intn(5) == 0)
		d.add(uint64(id)<<1 | b2u(hit))
	}
	ctr, st := c.Counters(), c.Stats()
	for _, v := range []uint64{ctr.TagLookups, ctr.WalkLookups, ctr.TagReads, ctr.TagWrites,
		ctr.DataReads, ctr.DataWrites, ctr.Relocations,
		st.Accesses, st.Hits, st.Misses, st.Evictions, st.Writebacks, st.CycleRetries} {
		d.add(v)
	}
	return d
}

// TestSkewDigestsPinned checks the skew-associative controller — the paper's
// Z W/W — for 2, 4, 8 and 16 ways under every policy whose order needs no
// trace oracle against the digests recorded when the pin was taken, on the
// flat miss path and on the generic one, which must agree.
func TestSkewDigestsPinned(t *testing.T) {
	kinds := []repl.Kind{repl.KindBucketedLRU, repl.KindLRU, repl.KindRandom,
		repl.KindLFU, repl.KindSRRIP, repl.KindDRRIP}
	want := map[int][]walkDigest{
		2: {
			0xc86cffd250176e59, 0xbe3ba01061124f35, 0x7f336c3708a49848,
			0x82c9555ce56557c0, 0x1cfcc052bca991a2, 0xb125ba65ee29399d,
		},
		4: {
			0xf6402d6d85a957f1, 0xc411c77b1922df93, 0xef804e8b306109d6,
			0x2a362a6b99a11f2e, 0x401acae0268cd4b4, 0x43437141efd2bc3b,
		},
		8: {
			0x814cbe8847652fc0, 0x487017564fe89894, 0xb31cd045ee2bb048,
			0x760a6ec38df38e23, 0xd456691da22118ba, 0x97de26274afaed38,
		},
		16: {
			0xf7a123ec42ea3417, 0x048293610c5b6a31, 0x17d0a80067cda727,
			0x5c52656e1b29fd94, 0x8839ac31cf20a0f6, 0x1a7fe95f6743bb27,
		},
	}
	for _, ways := range []int{2, 4, 8, 16} {
		for i, k := range kinds {
			for _, generic := range []bool{false, true} {
				if got := pinSkew(t, ways, k, generic, 100_000); got != want[ways][i] {
					t.Errorf("%d ways, %v, generic %t: digest %#x, pinned %#x",
						ways, k, generic, uint64(got), uint64(want[ways][i]))
				}
			}
		}
	}
}

// pinComparator drives a controller with LRU over arr through steps seeded
// references into twice its capacity (a fifth of them writes, every ninth
// step an invalidation) and digests the array's name, every hit and slot,
// every eviction with its dirtiness, in order, every invalidation's
// (present, dirty), and at the end the array's Counters and the
// controller's Stats.
func pinComparator(t *testing.T, arr Array, steps int) walkDigest {
	t.Helper()
	pol, err := repl.KindLRU.New(arr.Blocks(), 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(arr, pol, 6)
	if err != nil {
		t.Fatal(err)
	}
	var d walkDigest
	for _, b := range []byte(arr.Name()) {
		d.add(uint64(b))
	}
	c.OnEviction = func(addr uint64, dirty bool) { d.add(addr<<1 | b2u(dirty)) }
	rng := rand.New(rand.NewSource(int64(arr.Blocks())))
	for step := 0; step < steps; step++ {
		addr := uint64(rng.Intn(2*arr.Blocks())) << 6
		if step%9 == 8 {
			present, dirty := c.Invalidate(addr)
			d.add(b2u(present)<<1 | b2u(dirty))
			continue
		}
		id, hit := c.AccessSlot(addr, rng.Intn(5) == 0)
		d.add(uint64(id)<<1 | b2u(hit))
	}
	ctr, st := c.Counters(), c.Stats()
	for _, v := range []uint64{ctr.TagLookups, ctr.WalkLookups, ctr.TagReads, ctr.TagWrites,
		ctr.DataReads, ctr.DataWrites, ctr.Relocations,
		st.Accesses, st.Hits, st.Misses, st.Evictions, st.Writebacks, st.CycleRetries} {
		d.add(v)
	}
	return d
}

// TestComparatorDigestsPinned checks the §IV comparators — the
// fully-associative reference and the random-candidates array — under
// accesses and invalidations against the digests recorded when the pin was
// taken. The invalidation holes of the unconstrained arrays are on these
// paths.
func TestComparatorDigestsPinned(t *testing.T) {
	fa, err := NewFullyAssoc(256)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRandomCandidates(256, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		arr  Array
		want walkDigest
	}{
		{fa, 0xaf225bab48190fa0},
		{rc, 0x922e51a2db6b5dfa},
	} {
		if got := pinComparator(t, tc.arr, 30_000); got != tc.want {
			t.Errorf("%s: digest %#x, pinned %#x", tc.arr.Name(), uint64(got), uint64(tc.want))
		}
	}
}
