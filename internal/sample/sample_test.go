package sample

import (
	"fmt"
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
	if n.Intervals != 32 || n.Clusters != 12 {
		t.Errorf("defaults: %+v", n)
	}
	n = Spec{Intervals: 8, Clusters: 20}.Normalized()
	if n.Clusters != 8 {
		t.Errorf("clusters not clamped to intervals: %+v", n)
	}
}

// TestSampledHotPathZeroAllocs: the per-reference leg path — warm and
// replay, with a registered second timing variant — must never allocate.
func TestSampledHotPathZeroAllocs(t *testing.T) {
	cfg := testConfig()
	x, err := sim.NewL2Replayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x.AddLookupTiming(energy.Parallel)
	refs := testStream(4096).Refs
	i := 0
	allocs := testing.AllocsPerRun(5000, func() {
		r := refs[i%len(refs)]
		x.Warm(r)
		x.Replay(r, 0)
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

// legCounts is the part of a leg's counts that the leg identity pins.
type legCounts struct {
	Accesses, Hits, Misses, Writebacks, Relocations, WalkTagReads uint64
}

func legOf(c energy.SystemCounts) legCounts {
	return legCounts{c.L2Accesses, c.L2Hits, c.L2Misses, c.Writebacks,
		c.L2Relocations, c.L2WalkTagReads}
}

// checkLegIdentity asserts the leg identity for every interval of a
// nIntervals-way split of stream: a plan whose one cluster is interval j
// with weight 1 must report exactly the counts a full L2Replayer pass
// accumulates over interval j, when that pass resets its counters at each
// interval's start and harvests them at its end. It returns the full pass's
// per-interval counts.
func checkLegIdentity(t *testing.T, cfg sim.Config, stream *sim.L2Stream, nIntervals int) []legCounts {
	t.Helper()
	plan, err := BuildPlan(stream, cfg.L2Bytes/cfg.LineBytes, Spec{Intervals: nIntervals, Clusters: nIntervals})
	if err != nil {
		t.Fatal(err)
	}
	x, err := sim.NewL2Replayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]legCounts, len(plan.Intervals))
	for j, iv := range plan.Intervals {
		x.ResetCounters()
		for i := iv.Start; i < iv.End; i++ {
			x.Replay(stream.Refs[i], 0)
		}
		full[j] = legOf(x.Leg().Counts)
	}
	for j := range plan.Intervals {
		one := *plan
		one.Clusters = []Cluster{{Rep: j, Members: []int{j}, Weight: 1}}
		m, _, err := Run(cfg, stream, &one)
		if err != nil {
			t.Fatal(err)
		}
		if got := legOf(m.Counts); got != full[j] {
			t.Errorf("interval %d: sampled leg %+v, full replay %+v", j, got, full[j])
		}
	}
	return full
}

// TestLegIdentity pins that sampling costs only extrapolation error: every
// gap reference is warmed through the same cache access a replay makes, so
// each measured leg counts exactly what full replay counts over the same
// interval, under every Fig. 4 design and every policy the sampled
// executor accepts.
func TestLegIdentity(t *testing.T) {
	stream := testStream(16000)
	designs := []struct {
		design sim.Design
		ways   int
	}{
		{sim.SetAssocH3, 16}, {sim.SetAssocH3, 32}, {sim.SkewAssoc, 4},
		{sim.ZCacheL2, 4}, {sim.ZCacheL3, 4},
	}
	kinds := []repl.Kind{repl.KindBucketedLRU, repl.KindLRU, repl.KindRandom,
		repl.KindLFU, repl.KindSRRIP, repl.KindDRRIP}
	for _, d := range designs {
		for _, k := range kinds {
			t.Run(fmt.Sprintf("%v-%d/%v", d.design, d.ways, k), func(t *testing.T) {
				cfg := testConfig()
				cfg.Design, cfg.L2Ways, cfg.L2Policy = d.design, d.ways, k
				cfg.L2Bytes = 64 << 10 // 1024 lines: the hot phase alone overflows it
				var total legCounts
				for _, c := range checkLegIdentity(t, cfg, stream, 8) {
					total.Misses += c.Misses
					total.Writebacks += c.Writebacks
					total.Relocations += c.Relocations
				}
				if total.Misses == 0 || total.Writebacks == 0 {
					t.Errorf("stream exercises too little: %+v", total)
				}
				if (d.design == sim.ZCacheL2 || d.design == sim.ZCacheL3) && total.Relocations == 0 {
					t.Errorf("zcache walk never relocated: %+v", total)
				}
			})
		}
	}

	// One 16-set, 4-way bit-selected LRU bank, where lines 0, 16, 32, 48
	// and 64 share set 0: line 64 evicts 16, the least recently used line,
	// so the final access to 0 hits and the one interval counts 5 misses.
	// A filter that skipped the re-access of 0 as a guaranteed hit would
	// leave 0 least recently used, evict it instead, and count 6.
	t.Run("victim-stream", func(t *testing.T) {
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
		if full := checkLegIdentity(t, cfg, stream, 1); full[0].Misses != 5 {
			t.Errorf("full replay: %d misses, want 5", full[0].Misses)
		}
	})
}
