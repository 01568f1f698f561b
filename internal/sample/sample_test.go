package sample

import (
	"reflect"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/hash"
	"zcache/internal/repl"
	"zcache/internal/sim"
)

// testConfig is a small machine for executor tests: 4 cores, 512KB L2.
func testConfig() sim.Config {
	cfg := sim.PaperSystem(sim.ZCacheL2, repl.KindBucketedLRU, energy.Serial, 4)
	cfg.Cores = 4
	cfg.L2Bytes = 512 << 10
	cfg.L2Banks = 4
	cfg.Seed = 0xC0FFEE
	return cfg
}

// testStream synthesizes a captured L2 stream with phase structure.
func testStream(n int) *sim.L2Stream {
	s := &sim.L2Stream{PerCoreInstructions: make([]uint64, 4)}
	for i := 0; i < n; i++ {
		r := hash.Mix64(uint64(i) + 1)
		var line uint64
		switch (i / (n / 8)) % 3 {
		case 0:
			line = r % 2048 // hot
		case 1:
			line = (1 << 24) + uint64(i) // streaming
		default:
			line = r % 32768 // mixed
		}
		s.Refs = append(s.Refs, sim.L2Ref{
			Line: line, Gap: uint32(r % 7), Core: uint8(i % 4),
			Write: r%5 == 0, Demand: true,
		})
	}
	for _, r := range s.Refs {
		s.PerCoreInstructions[r.Core] += uint64(r.Gap) + 1
		s.Instructions += uint64(r.Gap) + 1
	}
	s.L1Accesses = s.Instructions / 3
	return s
}

// TestRunMatchesRunLookups: Run must be exactly the single-variant
// RunLookups, and the serial variant of a multi-lookup walk must be
// bit-identical to a serial-only walk — adding timing variants cannot
// perturb the primary variant's result.
func TestRunMatchesRunLookups(t *testing.T) {
	cfg := testConfig()
	stream := testStream(20000)
	plan, err := BuildPlan(stream, cfg.L2Bytes/64, Spec{})
	if err != nil {
		t.Fatal(err)
	}

	single, estS, err := Run(cfg, stream, plan)
	if err != nil {
		t.Fatal(err)
	}
	multi, estM, err := RunLookups(cfg, stream, plan, []energy.Lookup{energy.Serial, energy.Parallel})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(single, multi[0]) {
		t.Errorf("serial variant differs between Run and RunLookups:\n%+v\n%+v", single, multi[0])
	}
	if !reflect.DeepEqual(estS, estM) {
		t.Errorf("estimates differ: %+v vs %+v", estS, estM)
	}

	// The parallel variant shares all activity counts and differs only in
	// cycle-derived figures.
	if multi[1].Counts.L2Misses != multi[0].Counts.L2Misses ||
		multi[1].Counts.L2Accesses != multi[0].Counts.L2Accesses ||
		multi[1].Counts.Writebacks != multi[0].Counts.Writebacks {
		t.Errorf("activity counts differ across lookup variants:\n%+v\n%+v",
			multi[0].Counts, multi[1].Counts)
	}
	pcfg := cfg
	pcfg.Lookup = energy.Parallel
	parallelOnly, _, err := Run(pcfg, stream, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parallelOnly, multi[1]) {
		t.Errorf("parallel variant differs from a parallel-only walk:\n%+v\n%+v",
			parallelOnly, multi[1])
	}
}

// TestRunRejectsOPT: the sampled executor cannot honor next-use
// annotations over a stream it does not fully visit.
func TestRunRejectsOPT(t *testing.T) {
	cfg := testConfig()
	cfg.L2Policy = repl.KindOPT
	stream := testStream(1000)
	plan, err := BuildPlan(stream, cfg.L2Bytes/64, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Run(cfg, stream, plan); err == nil {
		t.Fatal("OPT accepted by sampled executor")
	}
}

// TestRunEmptyStream: an L1-resident workload degenerates to the exact
// empty-stream path.
func TestRunEmptyStream(t *testing.T) {
	cfg := testConfig()
	stream := &sim.L2Stream{Instructions: 1000,
		PerCoreInstructions: []uint64{250, 250, 250, 250}}
	plan, err := BuildPlan(stream, cfg.L2Bytes/64, Spec{})
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := Run(cfg, stream, plan)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.L2Accesses != 0 || m.Counts.Cycles != 250 {
		t.Errorf("empty stream: %+v", m.Counts)
	}
}

// TestSpecNormalized pins the default resolution the fingerprints fold.
func TestSpecNormalized(t *testing.T) {
	n := Spec{}.Normalized()
	if n.Intervals != 32 || n.Clusters != 12 || n.DEWPermille != 500 || n.Seed != 1 {
		t.Errorf("defaults: %+v", n)
	}
	n = Spec{Intervals: 8, Clusters: 20}.Normalized()
	if n.Clusters != 8 {
		t.Errorf("clusters not clamped to intervals: %+v", n)
	}
	n = Spec{DEWPermille: -1}.Normalized()
	if n.DEWPermille >= 0 {
		t.Errorf("negative DEWPermille (disabled) not preserved: %+v", n)
	}
}

// TestSampledHotPathZeroAllocs: the per-reference leg path — warm, replay
// (with a registered second timing variant), guaranteed-hit note, and the
// DEW membership insert — must never allocate.
func TestSampledHotPathZeroAllocs(t *testing.T) {
	cfg := testConfig()
	x, err := sim.NewL2Replayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x.AddLookupTiming(energy.Parallel)
	seen := newEpochSet(4096)
	refs := testStream(4096).Refs
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		r := refs[i%len(refs)]
		seen.insert(r.Line)
		x.Warm(r)
		x.Replay(r, 0)
		x.NoteGuaranteedHit(r)
		i++
	})
	if allocs != 0 {
		t.Errorf("sampled hot path allocates %.2f objects/access, want 0", allocs)
	}
}

// BenchmarkSampledReplayAccess measures the sampled leg's per-reference
// cost with both lookup variants accounted, the configuration the suite
// actually runs. TestSampledHotPathZeroAllocs pins its 0 allocs per reference.
func BenchmarkSampledReplayAccess(b *testing.B) {
	cfg := testConfig()
	x, err := sim.NewL2Replayer(cfg)
	if err != nil {
		b.Fatal(err)
	}
	x.AddLookupTiming(energy.Parallel)
	refs := testStream(1 << 14).Refs
	for _, r := range refs {
		x.Replay(r, 0)
	}
	mask := len(refs) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x.Replay(refs[i&mask], 0)
	}
}

// TestDEWSkipCanChangeTheVictim pins that the DEW fast path is not exact. On
// one 16-set, 4-way bit-selected LRU bank, lines 0, 16, 32, 48 and 64 share
// set 0. The skipped re-access of line 0 leaves it least recently used, so
// line 64 evicts 0 instead of 16, and the final access to 0 misses: 6 misses
// where full replay counts 5. With the filter off the sampled walk of the
// one interval is full replay.
func TestDEWSkipCanChangeTheVictim(t *testing.T) {
	cfg := sim.PaperSystem(sim.SetAssocBitSel, repl.KindLRU, energy.Serial, 4)
	cfg.Cores = 1
	cfg.L2Bytes = 16 * 4 * 64
	cfg.L2Banks = 1
	stream := &sim.L2Stream{PerCoreInstructions: make([]uint64, 1)}
	for _, line := range []uint64{0, 16, 32, 48, 0, 64, 0} {
		stream.Refs = append(stream.Refs, sim.L2Ref{Line: line, Gap: 1, Demand: true})
		stream.PerCoreInstructions[0]++
		stream.Instructions++
	}
	full, err := sim.ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	misses := func(dewPermille int) (uint64, uint64) {
		t.Helper()
		plan, err := BuildPlan(stream, cfg.L2Bytes/cfg.LineBytes, Spec{Intervals: 1, Clusters: 1, DEWPermille: dewPermille})
		if err != nil {
			t.Fatal(err)
		}
		m, est, err := Run(cfg, stream, plan)
		if err != nil {
			t.Fatal(err)
		}
		return m.Counts.L2Misses, est.SkippedHits
	}
	if full.Counts.L2Misses != 5 {
		t.Fatalf("full replay: %d misses, want 5", full.Counts.L2Misses)
	}
	if off, skipped := misses(-1); off != full.Counts.L2Misses || skipped != 0 {
		t.Errorf("DEW off: %d misses, %d skipped hits; want full replay's %d and 0", off, skipped, full.Counts.L2Misses)
	}
	if on, skipped := misses(0); on != 6 || skipped != 1 {
		t.Errorf("DEW on: %d misses, %d skipped hits; want 6 and 1", on, skipped)
	}
}
