package cache

import (
	"testing"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

func TestSetWalkBudget(t *testing.T) {
	fns := mkFns(t, 4, 256, 50)
	z, _ := NewZCache(256, fns, 3)
	if z.WalkBudget() != 52 {
		t.Fatalf("default budget = %d, want 52", z.WalkBudget())
	}
	if err := z.SetWalkBudget(16); err != nil {
		t.Fatal(err)
	}
	if z.WalkBudget() != 16 {
		t.Fatalf("budget = %d, want 16", z.WalkBudget())
	}
	if err := z.SetWalkBudget(3); err == nil {
		t.Error("budget below first-level candidates accepted")
	}
	if err := z.SetWalkBudget(1000); err != nil {
		t.Fatal(err)
	}
	if z.WalkBudget() != 52 {
		t.Errorf("oversized budget = %d, want clamp to 52", z.WalkBudget())
	}
}

func TestSetWalkBudgetChangesWalkTraffic(t *testing.T) {
	traffic := func(budget int) uint64 {
		fns := mkFns(t, 4, 512, 51)
		z, _ := NewZCache(512, fns, 3)
		if err := z.SetWalkBudget(budget); err != nil {
			t.Fatal(err)
		}
		pol, _ := repl.NewLRU(z.Blocks())
		c, _ := New(z, pol, 6)
		state := uint64(5)
		for i := 0; i < 60000; i++ {
			state = hash.Mix64(state)
			c.Access((state%8192)<<6, false)
		}
		return z.Counters().WalkLookups
	}
	lo, hi := traffic(4), traffic(52)
	if lo != 0 {
		t.Errorf("budget 4 (first level only) still walked: %d lookups", lo)
	}
	if hi == 0 {
		t.Error("budget 52 produced no walk traffic")
	}
}

func TestExpandFromGrowsTreeBelowVictim(t *testing.T) {
	fns := mkFns(t, 4, 512, 52)
	z, _ := NewZCache(512, fns, 2)
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	// Fill until the array is hole-free so the walk runs to full width.
	state := uint64(9)
	for round := 0; ; round++ {
		if round > 200 {
			t.Fatal("array never filled")
		}
		for i := 0; i < 8192; i++ {
			state = hash.Mix64(state)
			c.Access((state%8192)<<6, false)
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
	cands := z.Candidates(1<<40, nil)
	if len(cands) != 16 {
		t.Fatalf("phase-1 candidates = %d, want 16", len(cands))
	}
	victim := 10 // an arbitrary level-2 candidate
	grown := z.ExpandFrom(cands, victim, 1)
	extra := grown[16:]
	if len(extra) != 3 { // W-1 children of the victim
		t.Fatalf("phase-2 candidates = %d, want 3", len(extra))
	}
	for i, cd := range extra {
		if cd.Parent != victim {
			t.Errorf("extra[%d].Parent = %d, want %d", i, cd.Parent, victim)
		}
		if cd.Level != grown[victim].Level+1 {
			t.Errorf("extra[%d].Level = %d, want %d", i, cd.Level, grown[victim].Level+1)
		}
		if cd.Way == grown[victim].Way {
			t.Errorf("extra[%d] expanded into the victim's own way", i)
		}
		if got := fns[cd.Way].Hash(grown[victim].Addr); got != cd.Row {
			t.Errorf("extra[%d] row mismatch: relocation would be illegal", i)
		}
	}
	// Deeper expansion: one more level fans out from the 3 children.
	grown2 := z.ExpandFrom(cands[:16], victim, 2)
	if len(grown2) < 16+3+6 { // 3 children + 3×(W-1)=9 grandchildren (some may hit empty/budget)
		t.Errorf("2-level expansion yielded %d candidates", len(grown2)-16)
	}
}

func TestExpandFromInvalidIndex(t *testing.T) {
	fns := mkFns(t, 4, 64, 53)
	z, _ := NewZCache(64, fns, 2)
	cands := z.Candidates(42, nil)
	if got := z.ExpandFrom(cands, -1, 1); len(got) != len(cands) {
		t.Error("negative index expanded")
	}
	if got := z.ExpandFrom(cands, len(cands), 1); len(got) != len(cands) {
		t.Error("out-of-range index expanded")
	}
}

func TestHybridWalkPreservesContents(t *testing.T) {
	fns := mkFns(t, 4, 128, 54)
	z, _ := NewZCache(128, fns, 2)
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	if err := c.EnableHybridWalk(2); err != nil {
		t.Fatal(err)
	}
	resident := map[uint64]bool{}
	c.OnEviction = func(addr uint64, dirty bool) { delete(resident, addr>>6) }
	state := uint64(77)
	for i := 0; i < 40000; i++ {
		state = hash.Mix64(state)
		line := state % 2048
		hit := c.Access(line<<6, state%3 == 0)
		if hit != resident[line] {
			t.Fatalf("step %d: hit=%v resident=%v", i, hit, resident[line])
		}
		resident[line] = true
	}
	for line := range resident {
		if !c.Contains(line << 6) {
			t.Fatalf("line %#x lost under hybrid walk", line)
		}
	}
	// Hybrid relocation chains are longer; reachability must still hold.
	for id, ent := range z.tags.e {
		v := ent != EmptyLine
		if !v {
			continue
		}
		way, row := z.tags.wayRow(repl.BlockID(id))
		if fns[way].Hash(z.tags.e[id]) != row {
			t.Fatalf("line %#x unreachable after hybrid relocations", z.tags.e[id])
		}
	}
}

func TestHybridWalkImprovesVictimQuality(t *testing.T) {
	// With LRU and pressure, the hybrid's extra candidates must reduce
	// misses (or at least not increase them) versus the plain walk on
	// the same stream.
	run := func(hybrid bool) uint64 {
		fns := mkFns(t, 4, 512, 55)
		z, _ := NewZCache(512, fns, 2) // 16 candidates base
		pol, _ := repl.NewLRU(z.Blocks())
		c, _ := New(z, pol, 6)
		if hybrid {
			if err := c.EnableHybridWalk(2); err != nil {
				t.Fatal(err)
			}
		}
		gen := uint64(3)
		// Zipf-ish reuse via mixing: hot lines reused frequently.
		for i := 0; i < 300000; i++ {
			gen = hash.Mix64(gen)
			var line uint64
			if gen%3 != 0 {
				line = hash.Mix64(uint64(i%1500)) % 3000 // hot set
			} else {
				line = gen % 6000
			}
			c.Access(line<<6, false)
		}
		return c.Stats().Misses
	}
	plain, hybrid := run(false), run(true)
	if hybrid > plain {
		t.Errorf("hybrid walk misses %d > plain walk misses %d", hybrid, plain)
	}
}

func TestEnableHybridWalkValidation(t *testing.T) {
	a := newSA(t, 4, 16)
	pol, _ := repl.NewLRU(a.Blocks())
	c, _ := New(a, pol, 6)
	if err := c.EnableHybridWalk(1); err == nil {
		t.Error("hybrid walk enabled on a set-associative array")
	}
	fns := mkFns(t, 4, 16, 56)
	z, _ := NewZCache(16, fns, 2)
	polz, _ := repl.NewLRU(z.Blocks())
	cz, _ := New(z, polz, 6)
	if err := cz.EnableHybridWalk(0); err == nil {
		t.Error("zero-level hybrid accepted")
	}
}

func BenchmarkWalkAblation(b *testing.B) {
	// Ablation: plain Z4/16 vs hybrid Z4/16 (≈ Z4/52-grade candidates at
	// Z4/16 walk-table state) vs plain Z4/52.
	cases := []struct {
		name   string
		levels int
		hybrid int
	}{
		{"Z4x16", 2, 0},
		{"Z4x16+hybrid", 2, 2},
		{"Z4x52", 3, 0},
	}
	for _, cse := range cases {
		b.Run(cse.name, func(b *testing.B) {
			fns := mkFns(b, 4, 2048, 57)
			z, _ := NewZCache(2048, fns, cse.levels)
			pol, _ := repl.NewLRU(z.Blocks())
			c, _ := New(z, pol, 6)
			if cse.hybrid > 0 {
				if err := c.EnableHybridWalk(cse.hybrid); err != nil {
					b.Fatal(err)
				}
			}
			state := uint64(5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				state = hash.Mix64(state)
				var line uint64
				if state%3 != 0 {
					line = hash.Mix64(uint64(i%6000)) % 12000 // hot set
				} else {
					line = state % 32768
				}
				c.Access(line<<6, false)
			}
			b.StopTimer()
			st := c.Stats()
			if st.Accesses > 0 {
				b.ReportMetric(float64(st.Misses)/float64(st.Accesses), "missrate")
				b.ReportMetric(float64(z.Counters().Relocations)/float64(st.Misses+1), "relocs/miss")
			}
		})
	}
}

func TestDFSWalkProducesChain(t *testing.T) {
	fns := mkFns(t, 4, 256, 60)
	z, err := NewZCache(256, fns, 3, WithWalkStrategy(WalkDFS))
	if err != nil {
		t.Fatal(err)
	}
	if err := z.SetWalkBudget(20); err != nil {
		t.Fatal(err)
	}
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	state := uint64(4)
	for i := 0; i < 40000; i++ {
		state = hash.Mix64(state)
		c.Access((state%4096)<<6, false)
	}
	cands := z.Candidates(1<<40, nil)
	if len(cands) > 20 {
		t.Fatalf("DFS budget violated: %d candidates", len(cands))
	}
	// Beyond the first level the tree must be a single chain: each
	// candidate's parent is the previous one.
	for i := 5; i < len(cands); i++ {
		if cands[i].Parent != i-1 {
			t.Fatalf("candidate %d parent = %d; DFS must form a chain", i, cands[i].Parent)
		}
	}
	// Chain relocations must be legal.
	for i := 4; i < len(cands); i++ {
		p := cands[cands[i].Parent]
		if fns[cands[i].Way].Hash(p.Addr) != cands[i].Row {
			t.Fatalf("chain hop %d illegal", i)
		}
	}
}

func TestDFSWalkContentsStayConsistent(t *testing.T) {
	fns := mkFns(t, 4, 128, 61)
	z, _ := NewZCache(128, fns, 3, WithWalkStrategy(WalkDFS))
	if err := z.SetWalkBudget(16); err != nil {
		t.Fatal(err)
	}
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	state := uint64(8)
	resident := map[uint64]bool{}
	c.OnEviction = func(addr uint64, dirty bool) { delete(resident, addr>>6) }
	for i := 0; i < 40000; i++ {
		state = hash.Mix64(state)
		line := state % 2048
		hit := c.Access(line<<6, false)
		if hit != resident[line] {
			t.Fatalf("step %d: hit=%v resident=%v", i, hit, resident[line])
		}
		resident[line] = true
	}
	for line := range resident {
		if !c.Contains(line << 6) {
			t.Fatalf("line %#x lost under DFS relocation chains", line)
		}
	}
}

func TestDFSCostsMoreRelocationsThanBFS(t *testing.T) {
	// §III-D's quantitative claim: for the same number of replacement
	// candidates, DFS performs more relocations than BFS (whose victims
	// sit at most L-1 deep).
	relocsPerMiss := func(strategy WalkStrategy) float64 {
		fns := mkFns(t, 4, 512, 62)
		z, _ := NewZCache(512, fns, 3, WithWalkStrategy(strategy))
		if err := z.SetWalkBudget(16); err != nil {
			t.Fatal(err)
		}
		pol, _ := repl.NewLRU(z.Blocks())
		c, _ := New(z, pol, 6)
		state := uint64(2)
		for i := 0; i < 100000; i++ {
			state = hash.Mix64(state)
			c.Access((state%8192)<<6, false)
		}
		st := c.Stats()
		if st.Evictions == 0 {
			t.Fatal("no evictions")
		}
		return float64(z.Counters().Relocations) / float64(st.Evictions)
	}
	bfs, dfs := relocsPerMiss(WalkBFS), relocsPerMiss(WalkDFS)
	if dfs <= bfs {
		t.Errorf("DFS relocations/miss %.2f not above BFS %.2f", dfs, bfs)
	}
}

func TestWalkStrategyValidation(t *testing.T) {
	fns := mkFns(t, 4, 64, 63)
	if _, err := NewZCache(64, fns, 2, WithWalkStrategy(WalkStrategy(9))); err == nil {
		t.Error("bogus strategy accepted")
	}
}
