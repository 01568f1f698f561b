package cache

import (
	"errors"
	"testing"

	"zcache/internal/check"
	"zcache/internal/hash"
	"zcache/internal/repl"
)

// mkFns builds ways independent H3 functions over rows buckets.
func mkFns(t testing.TB, ways int, rows uint64, seed uint64) []hash.Func {
	t.Helper()
	fns, err := hash.H3Family{Seed: seed}.New(ways, rows)
	if err != nil {
		t.Fatal(err)
	}
	return fns
}

func TestReplacementCandidatesFormula(t *testing.T) {
	// §III-B: R = W · Σ_{l=0}^{L-1} (W-1)^l.
	cases := []struct{ w, l, want int }{
		{4, 1, 4},  // skew-associative degenerate case (Z4/4)
		{4, 2, 16}, // Z4/16
		{4, 3, 52}, // Z4/52 — the paper's headline configuration
		{3, 3, 21}, // the Fig. 1 example: 3 + 6 + 12
		{2, 4, 8},  // W=2: one alternative way per level
		{8, 2, 64}, // wide, shallow
		{16, 1, 16},
	}
	for _, c := range cases {
		if got := ReplacementCandidates(c.w, c.l); got != c.want {
			t.Errorf("R(W=%d, L=%d) = %d, want %d", c.w, c.l, got, c.want)
		}
	}
}

func TestWalkLevelsFor(t *testing.T) {
	l, c := WalkLevelsFor(4, 52)
	if l != 3 || c != 52 {
		t.Errorf("WalkLevelsFor(4,52) = %d,%d want 3,52", l, c)
	}
	l, c = WalkLevelsFor(4, 17)
	if l != 3 || c != 52 {
		t.Errorf("WalkLevelsFor(4,17) = %d,%d want 3,52 (next depth up)", l, c)
	}
	l, c = WalkLevelsFor(4, 1)
	if l != 1 || c != 4 {
		t.Errorf("WalkLevelsFor(4,1) = %d,%d want 1,4", l, c)
	}
}

func TestWalkLatencyFormula(t *testing.T) {
	// §III-B worked example: W=3, L=3, T_tag=4 → 3 pipelined levels of 4
	// cycles each = 12 cycles for 21 candidates.
	if got := WalkLatency(3, 3, 4); got != 12 {
		t.Errorf("WalkLatency(3,3,4) = %d, want 12", got)
	}
	// When a level has more probes than the tag latency, the probes
	// dominate: W=5, level 2 has (W-1)^2=16 probes > T_tag=4.
	want := 4 + 4 + 16
	if got := WalkLatency(5, 3, 4); got != want {
		t.Errorf("WalkLatency(5,3,4) = %d, want %d", got, want)
	}
}

func TestTimelineMatchesFig1g(t *testing.T) {
	// Fig. 1g's timeline: each relocation costs one data-array access
	// after the walk, so a victim at level 3 (2 relocations, 4-cycle data
	// array) finishes the whole replacement at 12 + 2*4 = 20 cycles,
	// hidden behind a 100-cycle memory fetch.
	if done := WalkLatency(3, 3, 4) + 2*4; done != 20 || done > 100 {
		t.Errorf("Fig. 1g replacement done at cycle %d, want 20 (<= 100)", done)
	}
}

func TestTimelineExposesSlowWalks(t *testing.T) {
	// A deep walk against a fast memory is not hidden: the §III early-stop
	// knob exists for this case.
	if done := WalkLatency(4, 3, 4) + 2*4; done <= 10 {
		t.Errorf("4-way/3-level replacement done at cycle %d, hidden behind a 10-cycle fetch", done)
	}
}

func TestZCacheConstructorValidation(t *testing.T) {
	fns := mkFns(t, 4, 64, 1)
	if _, err := NewZCache(63, fns, 2); err == nil {
		t.Error("non-power-of-two rows accepted")
	}
	if _, err := NewZCache(64, fns, 0); err == nil {
		t.Error("zero levels accepted")
	}
	if _, err := NewZCache(64, nil, 2); err == nil {
		t.Error("no ways accepted")
	}
	one := mkFns(t, 1, 64, 1)
	if _, err := NewZCache(64, one, 2); err == nil {
		t.Error("1-way multi-level walk accepted")
	}
	// Identical functions per way must be rejected (skewing requires
	// independent hashes).
	same, err := hash.NewBitSelect(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewZCache(64, []hash.Func{same, same}, 2); err == nil {
		t.Error("identical way hashes accepted")
	}
}

func TestZCacheFillsBeforeEvicting(t *testing.T) {
	fns := mkFns(t, 4, 16, 2)
	z, err := NewZCache(16, fns, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := repl.NewLRU(z.Blocks())
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(z, pol, 6)
	if err != nil {
		t.Fatal(err)
	}
	// 64 blocks at 75% load: the walk must place every line without an
	// eviction. (100% load is not guaranteed for cuckoo-style structures
	// — the walk is not exhaustive — but at 75% the chance that all ≤52
	// walked slots are simultaneously full is negligible.)
	for i := uint64(0); i < 48; i++ {
		c.Access(i*64, false)
	}
	st := c.Stats()
	if st.Evictions != 0 {
		t.Errorf("evictions during 75%% fill = %d, want 0", st.Evictions)
	}
	for i := uint64(0); i < 48; i++ {
		if !c.Contains(i * 64) {
			t.Errorf("line %d missing after fill", i)
		}
	}
}

func TestZCacheWalkTreeShape(t *testing.T) {
	fns := mkFns(t, 3, 8, 3)
	z, err := NewZCache(8, fns, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Fill the array completely so the walk runs to full depth.
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	for i := uint64(0); i < 5000; i++ {
		c.Access((hash.Mix64(i)%256)<<6, false)
		full := true
		for _, ent := range z.tags.e {
			v := ent != EmptyLine
			if !v {
				full = false
				break
			}
		}
		if full {
			break
		}
	}
	// Walk for a line not in the cache.
	probe := uint64(1 << 40)
	cands := z.Candidates(probe>>6, nil)
	// Fig. 1 geometry (3-way, 3 levels): 3 + 6 + 12 = 21 candidates,
	// minus any repeats in this tiny 24-block array.
	if len(cands) > 21 {
		t.Fatalf("walk produced %d candidates, max is 21", len(cands))
	}
	counts := map[int]int{}
	for i, cd := range cands {
		counts[cd.Level]++
		if cd.Level == 1 && cd.Parent != -1 {
			t.Errorf("level-1 candidate %d has parent %d", i, cd.Parent)
		}
		if cd.Level > 1 {
			if cd.Parent < 0 || cd.Parent >= i {
				t.Fatalf("candidate %d (level %d) has invalid parent %d", i, cd.Level, cd.Parent)
			}
			p := cands[cd.Parent]
			if p.Level != cd.Level-1 {
				t.Errorf("candidate %d level %d has parent at level %d", i, cd.Level, p.Level)
			}
			if p.Way == cd.Way {
				t.Errorf("candidate %d expanded into its parent's own way %d", i, cd.Way)
			}
			// The child's row must be the parent address hashed by
			// the child's way function — that is what makes the
			// relocation legal.
			if got := fns[cd.Way].Hash(p.Addr); got != cd.Row {
				t.Errorf("candidate %d row %d != h_%d(parent) = %d", i, cd.Row, cd.Way, got)
			}
		}
	}
	if counts[1] != 3 {
		t.Errorf("level-1 candidates = %d, want 3", counts[1])
	}
	if counts[2] == 0 || counts[3] == 0 {
		t.Errorf("walk did not reach depth: per-level counts %v", counts)
	}
}

func TestZCacheRelocationPreservesContents(t *testing.T) {
	// The defining zcache behaviour (Fig. 1e/f): installing a line may
	// move blocks between ways, but never lose or duplicate one.
	fns := mkFns(t, 4, 64, 5)
	z, err := NewZCache(64, fns, 3)
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)

	resident := map[uint64]bool{}
	evicted := map[uint64]bool{}
	c.OnEviction = func(addr uint64, dirty bool) {
		line := addr >> 6
		if !resident[line] {
			t.Fatalf("evicted line %#x was not resident", line)
		}
		delete(resident, line)
		evicted[line] = true
	}
	state := uint64(99)
	for i := 0; i < 20000; i++ {
		state = hash.Mix64(state)
		line := state % 1024 // 4x working set pressure
		hit := c.Access(line<<6, state%7 == 0)
		if hit != resident[line] {
			t.Fatalf("step %d: hit=%v but resident=%v for line %#x", i, hit, resident[line], line)
		}
		resident[line] = true
		delete(evicted, line)
	}
	// Model agreement: every line the model says is resident must be
	// found, and the cache must hold exactly len(resident) lines.
	for line := range resident {
		if !c.Contains(line << 6) {
			t.Errorf("line %#x lost by relocations", line)
		}
	}
	valid := 0
	for _, ent := range z.tags.e {
		v := ent != EmptyLine
		if v {
			valid++
		}
	}
	if valid != len(resident) {
		t.Errorf("array holds %d valid blocks, model says %d", valid, len(resident))
	}
}

func TestZCacheNoDuplicateResidentLines(t *testing.T) {
	fns := mkFns(t, 4, 32, 8)
	z, _ := NewZCache(32, fns, 2)
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	state := uint64(3)
	for i := 0; i < 10000; i++ {
		state = hash.Mix64(state)
		c.Access((state%512)<<6, false)
	}
	seen := map[uint64]bool{}
	for id, ent := range z.tags.e {
		v := ent != EmptyLine
		if !v {
			continue
		}
		line := z.tags.e[id]
		if seen[line] {
			t.Fatalf("line %#x resident in two slots", line)
		}
		seen[line] = true
	}
}

func TestZCacheResidentLineIsInOwnWayPosition(t *testing.T) {
	// Invariant: every resident line sits at h_w(line) in its way — the
	// property that keeps hits single-lookup after any relocation chain.
	fns := mkFns(t, 4, 32, 21)
	z, _ := NewZCache(32, fns, 3)
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	state := uint64(77)
	for i := 0; i < 10000; i++ {
		state = hash.Mix64(state)
		c.Access((state%400)<<6, false)
	}
	for id, ent := range z.tags.e {
		v := ent != EmptyLine
		if !v {
			continue
		}
		way, row := z.tags.wayRow(repl.BlockID(id))
		line := z.tags.e[id]
		if fns[way].Hash(line) != row {
			t.Fatalf("line %#x in way %d row %d, but h(line) = %d — unreachable by lookup",
				line, way, row, fns[way].Hash(line))
		}
	}
}

// TestZCachePackedHashThreshold drives a 4-way all-H3 zcache on both sides
// of the indexer's lane bound: at hash.WaySet4MaxRows rows per way the rows
// come from the packed table, one doubling later from the per-way H3
// functions (internal/hash's TestIndexerMatchesFuncs pins which table is
// chosen where). Either way every access must be found again and every
// resident line must sit where its own way function puts it.
func TestZCachePackedHashThreshold(t *testing.T) {
	for _, rows := range []uint64{hash.WaySet4MaxRows, hash.WaySet4MaxRows << 1} {
		fns := mkFns(t, 4, rows, 31)
		z, err := NewZCache(rows, fns, 2)
		if err != nil {
			t.Fatal(err)
		}
		pol, _ := repl.NewLRU(z.Blocks())
		c, _ := New(z, pol, 6)
		c.EnableChecks(true)
		state := uint64(5)
		for i := 0; i < 4000; i++ {
			state = hash.Mix64(state)
			addr := (state % 3000) << 6
			c.Access(addr, false)
			if !c.Contains(addr) {
				t.Fatalf("rows=%d: line %#x not found right after its access", rows, addr>>6)
			}
		}
		for id, ent := range z.tags.e {
			if ent == EmptyLine {
				continue
			}
			way, row := z.tags.wayRow(repl.BlockID(id))
			if fns[way].Hash(ent) != row {
				t.Fatalf("rows=%d: line %#x in way %d row %d, but h(line) = %d",
					rows, ent, way, row, fns[way].Hash(ent))
			}
		}
	}
}

func TestZCacheEnergyAccountingPerMiss(t *testing.T) {
	// §III-B: E_miss charges R tag reads for the walk plus, per
	// relocation, one read and one write of both arrays.
	fns := mkFns(t, 4, 1024, 9)
	z, _ := NewZCache(1024, fns, 2) // R = 16
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	// Drive until the array is completely full: holes swallow the walk
	// early (an empty slot ends the search), so the exact-accounting
	// check below needs a hole-free array.
	state := uint64(17)
	for round := 0; ; round++ {
		if round > 200 {
			t.Fatal("array never filled; walk cannot be finding holes")
		}
		for i := 0; i < 4096; i++ {
			state = hash.Mix64(state)
			c.Access((state%(3*4096))<<6, false)
		}
		full := true
		for _, ent := range z.tags.e {
			v := ent != EmptyLine
			if !v {
				full = false
				break
			}
		}
		if full {
			break
		}
	}
	before := *z.Counters()
	missLine := uint64(1 << 30)
	c.Access(missLine<<6, false)
	after := *z.Counters()
	walkReads := after.TagReads - before.TagReads
	relocs := after.Relocations - before.Relocations
	// Demand lookup: 4 single reads. Walk: up to 12 more (level 2).
	// Relocations: 1 tag read each. Install: no reads.
	wantReads := uint64(4) + 12 + relocs
	if walkReads != wantReads {
		t.Errorf("tag reads for one miss = %d, want %d (4 lookup + 12 walk + %d reloc)",
			walkReads, wantReads, relocs)
	}
	if relocs > 1 { // victim at level ≤ 2 → at most 1 relocation
		t.Errorf("relocations = %d, want ≤ 1 for a 2-level walk", relocs)
	}
	dataWrites := after.DataWrites - before.DataWrites
	if dataWrites != relocs+1 { // relocated blocks + incoming line
		t.Errorf("data writes = %d, want %d", dataWrites, relocs+1)
	}
}

func TestZCacheEarlyStopBudget(t *testing.T) {
	fns := mkFns(t, 4, 256, 10)
	z, err := NewZCache(256, fns, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := z.SetWalkBudget(10); err != nil {
		t.Fatal(err)
	}
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	for i := uint64(0); i < 2048; i++ {
		c.Access(hash.Mix64(i)<<6, false)
	}
	cands := z.Candidates(1<<40, nil)
	if len(cands) > 10 {
		t.Errorf("early-stop budget violated: %d candidates > 10", len(cands))
	}
}

func TestZCacheRepeatAvoidance(t *testing.T) {
	// In a tiny cache, walks revisit slots constantly (§III-D). With the
	// Bloom filter the walk must never expand through a visited address.
	fns := mkFns(t, 3, 4, 11)
	zPlain, _ := NewZCache(4, fns, 3)
	fns2 := mkFns(t, 3, 4, 11)
	zFiltered, _ := NewZCache(4, fns2, 3, WithRepeatAvoidance(10, 2))
	for _, z := range []*ZCache{zPlain, zFiltered} {
		pol, _ := repl.NewLRU(z.Blocks())
		c, _ := New(z, pol, 6)
		state := uint64(5)
		for i := 0; i < 3000; i++ {
			state = hash.Mix64(state)
			c.Access((state%64)<<6, false)
		}
	}
	// Unfiltered, the walk's 21 candidates over 12 slots must revisit some.
	revisits := map[repl.BlockID]bool{}
	repeated := false
	for _, cd := range zPlain.Candidates(1<<40, nil) {
		repeated = repeated || revisits[cd.ID]
		revisits[cd.ID] = true
	}
	if !repeated {
		t.Error("tiny cache's walk revisited no slot; nothing for the filter to prune")
	}
	// The filtered walk sees strictly fewer duplicate expansions land in
	// its candidate lists; verify via a single walk on the filtered one.
	cands := zFiltered.Candidates(1<<40, nil)
	slots := map[repl.BlockID]bool{}
	for _, cd := range cands {
		if cd.Valid && slots[cd.ID] {
			t.Fatalf("repeat-avoiding walk returned slot %d twice", cd.ID)
		}
		slots[cd.ID] = true
	}
}

func TestZCacheCuckooCycleRecovery(t *testing.T) {
	// Drive a tiny 2-way zcache hard: 2-way deep walks in a 16-block
	// array revisit slots, so some victims produce invalid relocation
	// chains. The controller must retry and never corrupt contents.
	fns := mkFns(t, 2, 8, 13)
	z, _ := NewZCache(8, fns, 4)
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	state := uint64(1)
	for i := 0; i < 20000; i++ {
		state = hash.Mix64(state)
		c.Access((state%128)<<6, false)
	}
	// No duplicate lines, all reachable.
	seen := map[uint64]bool{}
	for id, ent := range z.tags.e {
		v := ent != EmptyLine
		if !v {
			continue
		}
		line := z.tags.e[id]
		if seen[line] {
			t.Fatalf("line %#x duplicated after cycle recovery", line)
		}
		seen[line] = true
		way, row := z.tags.wayRow(repl.BlockID(id))
		if fns[way].Hash(line) != row {
			t.Fatalf("line %#x unreachable after cycle recovery", line)
		}
	}
}

func TestZCacheInstallRejectsBadVictim(t *testing.T) {
	fns := mkFns(t, 4, 16, 14)
	z, _ := NewZCache(16, fns, 2)
	cands := z.Candidates(42, nil)
	if _, err := z.Install(42, cands, -1); err == nil {
		t.Error("negative victim accepted")
	}
	if _, err := z.Install(42, cands, len(cands)); err == nil {
		t.Error("out-of-range victim accepted")
	}
}

func TestErrCuckooCycleIsSentinel(t *testing.T) {
	if !errors.Is(ErrCuckooCycle, ErrCuckooCycle) {
		t.Error("sentinel identity broken")
	}
}

func BenchmarkZCacheHit(b *testing.B) {
	fns := mkFns(b, 4, 2048, 1)
	z, _ := NewZCache(2048, fns, 3)
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	for i := uint64(0); i < 8192; i++ {
		c.Access(i<<6, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access((uint64(i)%8192)<<6, false)
	}
}

func BenchmarkZCacheMissWithWalk(b *testing.B) {
	fns := mkFns(b, 4, 2048, 1)
	z, _ := NewZCache(2048, fns, 3)
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	for i := uint64(0); i < 8192; i++ {
		c.Access(i<<6, false)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Always-miss stream: every access walks and relocates.
		c.Access((uint64(i)+1<<20)<<6, false)
	}
}

// TestEmptyLineIsRefused: EmptyLine is what an empty slot's tag holds, so
// every controller entry point that takes an address refuses it instead of
// "hitting" whichever empty slot the probe meets.
func TestEmptyLineIsRefused(t *testing.T) {
	z, err := NewZCache(16, mkFns(t, 4, 16, 3), 2)
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := repl.NewLRU(z.Blocks())
	c, err := New(z, pol, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, op := range map[string]func(){
		"Access":     func() { c.Access(EmptyLine, false) },
		"Peek":       func() { c.Peek(EmptyLine) },
		"Contains":   func() { c.Contains(EmptyLine) },
		"Invalidate": func() { c.Invalidate(EmptyLine) },
	} {
		func() {
			defer func() {
				if v, ok := recover().(*check.Violation); !ok || v.Invariant != "cache/empty-line" {
					t.Errorf("%s(EmptyLine) did not panic with the empty-line violation", name)
				}
			}()
			op()
		}()
	}
}
