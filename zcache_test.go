package zcache

import (
	"context"
	"encoding/json"
	"testing"

	"zcache/internal/cache"
	"zcache/internal/energy"
	"zcache/internal/sim"
	"zcache/internal/workloads"
)

// TestDesignIdentitiesPinned pins the design spellings other code compares:
// the labels of the baseline and the Fig. 4 designs (bench/simwl.go, Fig4's
// baseline lookup and the run-store key match them), Fig4Designs' JSON, the
// label scheme itself, and sim.ParseDesign as the inverse of Design.String.
func TestDesignIdentitiesPinned(t *testing.T) {
	for _, c := range []struct {
		d    DesignPoint
		want string
	}{
		{BaselineDesign(), "SA-4"},
		{Fig4Designs()[0], "SA-16"},
		{Fig4Designs()[1], "SA-32"},
		{Fig4Designs()[2], "Z4/4"},
		{Fig4Designs()[3], "Z4/16"},
		{Fig4Designs()[4], "Z4/52"},
		{NewDesignPoint(sim.SetAssocBitSel, 4), "SAbit-4"},
		{NewDesignPoint(sim.SkewAssoc, 16), "Z16/16"},
	} {
		if c.d.Label != c.want {
			t.Errorf("%v at %d ways is labelled %q, want %q", c.d.Design, c.d.Ways, c.d.Label, c.want)
		}
	}
	for _, c := range []struct {
		ways, levels int
		hashed       bool
		want         string
	}{
		{1, 0, false, "SAbit-1"},
		{4, 0, true, "SA-4"},
		{4, 1, true, "Z4/4"},
		{3, 3, true, "Z3/21"},
	} {
		if got := cache.DesignLabel(c.ways, c.levels, c.hashed); got != c.want {
			t.Errorf("DesignLabel(%d, %d, %t) = %q, want %q", c.ways, c.levels, c.hashed, got, c.want)
		}
	}
	js, err := json.Marshal(Fig4Designs())
	if err != nil {
		t.Fatal(err)
	}
	const wantJSON = `[{"Label":"SA-16","Design":1,"Ways":16},{"Label":"SA-32","Design":1,"Ways":32},` +
		`{"Label":"Z4/4","Design":2,"Ways":4},{"Label":"Z4/16","Design":3,"Ways":4},{"Label":"Z4/52","Design":4,"Ways":4}]`
	if string(js) != wantJSON {
		t.Errorf("Fig4Designs JSON\n%s\nwant\n%s", js, wantJSON)
	}
	for _, d := range []sim.Design{sim.SetAssocBitSel, sim.SetAssocH3, sim.SkewAssoc, sim.ZCacheL2, sim.ZCacheL3} {
		if got, err := sim.ParseDesign(d.String()); err != nil || got != d {
			t.Errorf("ParseDesign(%q) = %v, %v; want %v", d.String(), got, err, d)
		}
	}
	if d, err := sim.ParseDesign("z3"); err == nil {
		t.Errorf("ParseDesign accepted the unknown spelling z3 as %v", d)
	}
}

func TestNewValidatesConfig(t *testing.T) {
	base := Config{CapacityBytes: 1 << 16, LineBytes: 64, Ways: 4, Seed: 1}
	if _, err := New(base); err != nil {
		t.Fatal(err)
	}
	bad := base
	bad.LineBytes = 48
	if _, err := New(bad); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	bad = base
	bad.Ways = 0
	if _, err := New(bad); err == nil {
		t.Error("zero ways accepted")
	}
	bad = base
	bad.CapacityBytes = 1<<16 + 64
	if _, err := New(bad); err == nil {
		t.Error("ragged capacity accepted")
	}
	bad = base
	bad.Design = DesignKind(99)
	if _, err := New(bad); err == nil {
		t.Error("unknown design accepted")
	}
	bad = base
	bad.Policy = PolicyKind(99)
	if _, err := New(bad); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestAllDesignsAndPoliciesConstruct(t *testing.T) {
	designs := []DesignKind{
		DesignZCache, DesignSetAssociative, DesignSetAssociativeHashed,
		DesignFullyAssociative, DesignRandomCandidates,
	}
	policies := []PolicyKind{PolicyLRU, PolicyBucketedLRU, PolicyRandom, PolicyLFU, PolicySRRIP, PolicyDRRIP}
	for _, d := range designs {
		for _, p := range policies {
			c, err := New(Config{
				CapacityBytes: 1 << 15, LineBytes: 64, Ways: 4,
				Design: d, Policy: p, Seed: 7,
			})
			if err != nil {
				t.Fatalf("design %d policy %d: %v", d, p, err)
			}
			// Exercise a small stream through the public surface.
			for i := uint64(0); i < 3000; i++ {
				c.Access(i%1024*64, i%5 == 0)
			}
			st := c.Stats()
			if st.Accesses != 3000 || st.Hits+st.Misses != st.Accesses {
				t.Errorf("design %d policy %d: inconsistent stats %+v", d, p, st)
			}
		}
	}
}

func TestQuickstartFlow(t *testing.T) {
	// The doc.go quickstart must actually work.
	c, err := New(Config{
		CapacityBytes: 1 << 20,
		LineBytes:     64,
		Ways:          4,
		WalkLevels:    3,
		Policy:        PolicyLRU,
		Seed:          42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Access(0xdeadbeef, false) {
		t.Error("cold access hit")
	}
	if !c.Access(0xdeadbeef, false) {
		t.Error("warm access missed")
	}
	if got := ReplacementCandidates(4, 3); got != 52 {
		t.Errorf("R(4,3) = %d, want 52", got)
	}
}

func TestInstrumentedFacade(t *testing.T) {
	const blocks = 1 << 10
	pol, err := PolicyLRU.New(blocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Instrument(pol, blocks, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithPolicy(Config{
		CapacityBytes: blocks * 64, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 2, Seed: 3,
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 50000; i++ {
		c.Access((i*2654435761)%(blocks*4)*64, false)
	}
	d := m.Measured("facade")
	if d.Samples == 0 || d.CDF == nil {
		t.Fatal("no distribution measured")
	}
	u := UniformDistribution(16, len(d.CDF))
	ks, err := KSDistance(d, u)
	if err != nil {
		t.Fatal(err)
	}
	if ks > 0.2 {
		t.Errorf("uniform-random traffic KS = %.3f vs x^16; too far", ks)
	}
}

func TestOPTThroughFacade(t *testing.T) {
	gen, err := NewZipfGenerator(0, 1<<16, 64, 0.8, 0, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	accs := CollectAccesses(gen, 20000)
	next, err := AnnotateNextUse(accs, 64)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := PolicyOPT.New(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWithPolicy(Config{
		CapacityBytes: 256 * 64, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 2, Seed: 9,
	}, pol)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range accs {
		SetNextUse(pol, next[i])
		c.Access(a.Addr, a.Write)
	}
	lru, _ := PolicyLRU.New(256, 0)
	cl, err := NewWithPolicy(Config{
		CapacityBytes: 256 * 64, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 2, Seed: 9,
	}, lru)
	if err != nil {
		t.Fatal(err)
	}
	gen.Reset()
	for _, a := range accs {
		cl.Access(a.Addr, a.Write)
	}
	if c.Stats().Misses > cl.Stats().Misses {
		t.Errorf("OPT misses %d > LRU misses %d", c.Stats().Misses, cl.Stats().Misses)
	}
}

func TestExperimentRunAndFig4(t *testing.T) {
	e := NewExperiment(TestPreset())
	names := []string{"canneal", "gamess", "mcf"}
	lines, err := e.Fig4(context.Background(), names, PolicyLRU)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != len(Fig4Designs()) {
		t.Fatalf("lines = %d, want %d", len(lines), len(Fig4Designs()))
	}
	for _, l := range lines {
		if len(l.MPKIImprovement) != len(names) || len(l.IPCImprovement) != len(names) {
			t.Fatalf("%s: %d/%d points, want %d", l.Design.Label, len(l.MPKIImprovement), len(l.IPCImprovement), len(names))
		}
		for i := 1; i < len(l.MPKIImprovement); i++ {
			if l.MPKIImprovement[i] < l.MPKIImprovement[i-1] {
				t.Errorf("%s: MPKI line not sorted", l.Design.Label)
			}
		}
	}
}

func TestExperimentFig5Aggregates(t *testing.T) {
	e := NewExperiment(TestPreset())
	names := []string{"canneal", "gamess", "cactusADM", "ammp", "cpu2006rand00"}
	cells, err := e.Fig5(context.Background(), names, PolicyBucketedLRU)
	if err != nil {
		t.Fatal(err)
	}
	sawGeomean, sawRep, sawClass := false, false, false
	for _, c := range cells {
		if c.Workload == "geomean-all" {
			sawGeomean = true
		}
		if c.Workload == "geomean-parsec" || c.Workload == "geomean-cpu2006" {
			sawClass = true
		}
		if c.Workload == "canneal" {
			sawRep = true
		}
		if c.IPCGain <= 0 || c.EffGain <= 0 {
			t.Errorf("non-positive gains in %+v", c)
		}
	}
	if !sawGeomean || !sawRep || !sawClass {
		t.Errorf("missing aggregate (%v), representative (%v), or class (%v) cells", sawGeomean, sawRep, sawClass)
	}
}

func TestExperimentBandwidth(t *testing.T) {
	e := NewExperiment(TestPreset())
	pts, err := e.Bandwidth(context.Background(), []string{"mcf", "gamess"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %d", len(pts))
	}
	for _, p := range pts {
		if p.TagLoad < p.DemandLoad {
			t.Errorf("%s: tag load %.4f below demand load %.4f", p.Workload, p.TagLoad, p.DemandLoad)
		}
		if p.TagLoad > 1 {
			t.Errorf("%s: tag load %.4f exceeds bank capacity", p.Workload, p.TagLoad)
		}
	}
}

func TestExperimentFig3(t *testing.T) {
	e := NewExperiment(TestPreset())
	cases, err := e.Fig3([]Config{{Design: DesignZCache, Ways: 4, WalkLevels: 2}}, []string{"canneal"})
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 {
		t.Fatalf("cases = %d, want 1", len(cases))
	}
	c := cases[0]
	if c.Candidates != 16 {
		t.Errorf("candidates = %d, want 16", c.Candidates)
	}
	if c.Dist.Samples == 0 {
		t.Error("no evictions measured")
	}
	if c.KSvsUniform < 0 || c.KSvsUniform > 0.5 {
		t.Errorf("KS = %.3f; zcache should track the uniformity curve", c.KSvsUniform)
	}
}

func TestSuiteWorkloadsFiltering(t *testing.T) {
	all, err := SuiteWorkloads(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 72 {
		t.Errorf("full suite = %d, want 72", len(all))
	}
	some, err := SuiteWorkloads([]string{"mcf"})
	if err != nil || len(some) != 1 || some[0].Name != "mcf" {
		t.Errorf("filtering broken: %v %v", some, err)
	}
	if _, err := SuiteWorkloads([]string{"nope"}); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestSafeRatio(t *testing.T) {
	if safeRatio(0, 0) != 1 {
		t.Error("0/0 should be 1 (no-miss equality)")
	}
	if safeRatio(5, 0) != 100 {
		t.Error("n/0 should cap at 100")
	}
	if safeRatio(4, 2) != 2 {
		t.Error("plain ratio broken")
	}
}

func TestPresets(t *testing.T) {
	full := FullPreset()
	if full.Cores != 32 || full.L2Bytes != 8<<20 || full.L2Banks != 8 {
		t.Errorf("FullPreset != Table I: %+v", full)
	}
	for _, p := range []Preset{FullPreset(), QuickPreset(), TestPreset()} {
		if p.Cores <= 0 || p.L2Bytes == 0 || p.InstructionsPerCore == 0 {
			t.Errorf("degenerate preset %+v", p)
		}
	}
}

func TestExperimentDeterminism(t *testing.T) {
	run := func() RunResult {
		e := NewExperiment(TestPreset())
		w, _ := workloads.ByName("canneal")
		r, err := e.Run(w, BaselineDesign(), PolicyLRU, energy.Serial)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Metrics.Counts != b.Metrics.Counts {
		t.Errorf("experiment non-deterministic:\n%+v\n%+v", a.Metrics.Counts, b.Metrics.Counts)
	}
}

func TestHybridWalkThroughFacade(t *testing.T) {
	c, err := New(Config{
		CapacityBytes: 1 << 16, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 2, HybridWalkLevels: 1,
		Policy: PolicyLRU, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20000; i++ {
		c.Access(i%4096*64, false)
	}
	if c.Stats().Misses == 0 {
		t.Error("no activity")
	}
	if _, err := New(Config{
		CapacityBytes: 1 << 16, LineBytes: 64, Ways: 4,
		Design: DesignSetAssociative, HybridWalkLevels: 1,
		Policy: PolicyLRU, Seed: 5,
	}); err == nil {
		t.Error("hybrid walk accepted on a set-associative design")
	}
}

func TestWalkBudgetThroughFacade(t *testing.T) {
	c, err := New(Config{
		CapacityBytes: 1 << 16, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 3, Policy: PolicyLRU, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := WalkBudget(c); got != 52 {
		t.Errorf("WalkBudget = %d, want 52", got)
	}
	if err := SetWalkBudget(c, 16); err != nil {
		t.Fatal(err)
	}
	if got := WalkBudget(c); got != 16 {
		t.Errorf("WalkBudget = %d, want 16", got)
	}
	sa, _ := New(Config{
		CapacityBytes: 1 << 16, LineBytes: 64, Ways: 4,
		Design: DesignSetAssociative, Policy: PolicyLRU, Seed: 5,
	})
	if err := SetWalkBudget(sa, 16); err == nil {
		t.Error("walk budget set on a set-associative design")
	}
	if got := WalkBudget(sa); got != 0 {
		t.Errorf("set-associative WalkBudget = %d, want 0", got)
	}
}

func TestCompareConflictMisses(t *testing.T) {
	// 256 lines that all alias to set 0 of a 512-set bit-selected
	// direct-mapped cache: the working set fits the capacity, so every
	// steady-state miss is a pure conflict miss.
	var accs []Access
	for round := 0; round < 100; round++ {
		for k := uint64(0); k < 256; k++ {
			accs = append(accs, Access{Addr: k * 512 * 64})
		}
	}
	rep, err := CompareConflictMisses(Config{
		CapacityBytes: 64 * 512, LineBytes: 64, Ways: 1,
		Design: DesignSetAssociative, Policy: PolicyLRU, Seed: 1,
	}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConflictMisses == 0 {
		t.Errorf("no conflict misses on a strided direct-mapped thrash: %+v", rep)
	}
	// The same stream on a zcache: far fewer conflict misses.
	repZ, err := CompareConflictMisses(Config{
		CapacityBytes: 64 * 512, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 3, Policy: PolicyLRU, Seed: 1,
	}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if repZ.ConflictMisses*2 > rep.ConflictMisses {
		t.Errorf("zcache conflict misses %d not ≪ direct-mapped %d", repZ.ConflictMisses, rep.ConflictMisses)
	}
	// A hybrid walk belongs to the design alone: the fully-associative
	// reference is the one the plain zcache was compared against.
	repH, err := CompareConflictMisses(Config{
		CapacityBytes: 64 * 512, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 2, HybridWalkLevels: 1, Policy: PolicyLRU, Seed: 1,
	}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if repH.FullAssocMisses != repZ.FullAssocMisses {
		t.Errorf("hybrid zcache's reference missed %d times, the plain zcache's %d",
			repH.FullAssocMisses, repZ.FullAssocMisses)
	}
}

func TestConflictMissProxyCanGoNegative(t *testing.T) {
	// §IV's criticism of the proxy: with an anti-LRU pattern (cyclic scan
	// slightly larger than the cache), the fully-associative LRU cache
	// misses on *every* access while a restricted design keeps some hits,
	// making "conflict misses" negative.
	gen, err := NewStridedGenerator(0, 64, 64*600, 0, 0, 1) // cyclic scan of 600 lines
	if err != nil {
		t.Fatal(err)
	}
	accs := CollectAccesses(gen, 60000)
	rep, err := CompareConflictMisses(Config{
		CapacityBytes: 64 * 512, LineBytes: 64, Ways: 4,
		Design: DesignSetAssociativeHashed, Policy: PolicyLRU, Seed: 1,
	}, accs)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NegativeGap == 0 {
		t.Errorf("cyclic anti-LRU scan did not invert the proxy: %+v", rep)
	}
}

func TestHashFamilySelection(t *testing.T) {
	for _, h := range []HashKind{HashH3, HashSHA1} {
		c, err := New(Config{
			CapacityBytes: 1 << 15, LineBytes: 64, Ways: 4,
			Design: DesignZCache, WalkLevels: 1, Hash: h, Policy: PolicyLRU, Seed: 3,
		})
		if err != nil {
			t.Fatalf("hash %d: %v", h, err)
		}
		for i := uint64(0); i < 2000; i++ {
			c.Access(i%600*64, false)
		}
		if c.Stats().Hits == 0 {
			t.Errorf("hash %d: degenerate behaviour", h)
		}
	}
	if _, err := New(Config{
		CapacityBytes: 1 << 15, LineBytes: 64, Ways: 4,
		Design: DesignZCache, Hash: HashKind(9), Policy: PolicyLRU, Seed: 3,
	}); err == nil {
		t.Error("bogus hash family accepted")
	}
	// H3 and SHA-1 skew caches must disagree on placement (different
	// functions), visible as different miss counts on a conflict stream.
	miss := func(h HashKind) uint64 {
		c, _ := New(Config{
			CapacityBytes: 1 << 15, LineBytes: 64, Ways: 2,
			Design: DesignZCache, WalkLevels: 1, Hash: h, Policy: PolicyLRU, Seed: 3,
		})
		for i := uint64(0); i < 30000; i++ {
			c.Access(i%1024*64, false)
		}
		return c.Stats().Misses
	}
	if miss(HashH3) == miss(HashSHA1) {
		t.Log("H3 and SHA-1 produced identical miss counts (possible but unlikely)")
	}
}

func TestSimFacadeRoundTrip(t *testing.T) {
	cfg := PaperSimConfig(SimZCache3, PolicyBucketedLRU, SerialLookup, 4)
	cfg.Cores = 4
	cfg.L2Bytes = 512 << 10
	cfg.L2Banks = 4
	cfg.InstructionsPerCore = 50_000
	res, err := RunSystem(cfg, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	if res.Eval.IPC <= 0 || res.Metrics.Counts.L2Accesses == 0 {
		t.Errorf("degenerate run: %+v", res.Eval)
	}
	if _, err := RunSystem(cfg, "not-a-workload"); err == nil {
		t.Error("unknown workload accepted")
	}
	// Trace-driven round trip with OPT.
	stream, err := CaptureL2Stream(cfg, "gcc")
	if err != nil {
		t.Fatal(err)
	}
	cfg.L2Policy = PolicyOPT
	opt, err := ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	cfg.L2Policy = PolicyBucketedLRU
	lru, err := ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Metrics.Counts.L2Misses > lru.Metrics.Counts.L2Misses {
		t.Errorf("OPT misses %d > LRU misses %d", opt.Metrics.Counts.L2Misses, lru.Metrics.Counts.L2Misses)
	}
	if len(WorkloadNames()) != 72 {
		t.Errorf("WorkloadNames = %d entries", len(WorkloadNames()))
	}
}

func TestWalkTree(t *testing.T) {
	c, err := New(Config{
		CapacityBytes: 64 * 64, LineBytes: 64, Ways: 4,
		Design: DesignZCache, WalkLevels: 2, Policy: PolicyLRU, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 500; i++ {
		c.Access(i*64, false)
	}
	tree, err := WalkTree(c, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree) == 0 || len(tree) > 16 {
		t.Fatalf("tree size %d", len(tree))
	}
	for i, cd := range tree {
		if cd.Level == 1 && cd.Parent != -1 {
			t.Errorf("node %d: level-1 with parent", i)
		}
		if cd.Level > 1 && (cd.Parent < 0 || cd.Parent >= i) {
			t.Errorf("node %d: bad parent %d", i, cd.Parent)
		}
	}
	c.Access(1<<30, false)
	if _, err := WalkTree(c, 1<<30); err == nil {
		t.Error("WalkTree accepted a resident line")
	}
}

func TestPolicyStudy(t *testing.T) {
	e := NewExperiment(TestPreset())
	lines, err := e.PolicyStudy(context.Background(), []string{"canneal", "gcc", "ammp"},
		[]PolicyKind{PolicySRRIP, PolicyRandom})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	for _, l := range lines {
		if len(l.IPCImprovement) != 3 || len(l.MPKIImprovement) != 3 {
			t.Fatalf("%v: wrong point counts", l.Policy)
		}
		for i := 1; i < len(l.IPCImprovement); i++ {
			if l.IPCImprovement[i] < l.IPCImprovement[i-1] {
				t.Errorf("%v: IPC line not sorted", l.Policy)
			}
		}
	}
}
