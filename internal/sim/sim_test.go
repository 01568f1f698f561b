package sim

import (
	"math/bits"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

// tinyConfig returns a scaled-down CMP that keeps tests fast: 4 cores,
// 8KB L1s, 256KB L2 in 4 banks.
func tinyConfig(design Design, policy repl.Kind) Config {
	return Config{
		Cores:               4,
		L1Bytes:             8 << 10,
		L1Ways:              4,
		LineBytes:           64,
		L2Bytes:             256 << 10,
		L2Ways:              4,
		L2Banks:             4,
		Design:              design,
		L2Policy:            policy,
		Lookup:              energy.Serial,
		L1ToL2:              4,
		MemControllers:      2,
		MemLatency:          200,
		MemBytesPerCycle:    32,
		InstructionsPerCore: 200_000,
		Seed:                42,
	}
}

// zipfGens builds one private zipf generator per core.
func zipfGens(t testing.TB, cfg Config, footprint uint64, theta float64, writeFrac float64) []trace.Generator {
	t.Helper()
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		base := uint64(i) << 40 // disjoint address spaces
		g, err := trace.NewZipf(base, footprint, cfg.LineBytes, theta, 2, writeFrac, uint64(i)*7+1)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = g
	}
	return gens
}

func TestConfigValidation(t *testing.T) {
	good := tinyConfig(SetAssocH3, repl.KindLRU)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Cores = 0
	if bad.Validate() == nil {
		t.Error("0 cores accepted")
	}
	bad = good
	bad.Cores = 65
	if bad.Validate() == nil {
		t.Error("65 cores accepted (a sharer field is at most 64 bits)")
	}
	bad = good
	bad.L2Banks = 3
	if bad.Validate() == nil {
		t.Error("non-power-of-two banks accepted")
	}
	bad = good
	bad.L2Policy = repl.KindOPT
	if bad.Validate() == nil {
		t.Error("OPT accepted in execution-driven mode")
	}
	bad = good
	bad.InstructionsPerCore = 0
	if bad.Validate() == nil {
		t.Error("zero instructions accepted")
	}
}

func TestPaperSystemMatchesTableI(t *testing.T) {
	cfg := PaperSystem(SetAssocH3, repl.KindBucketedLRU, energy.Serial, 4)
	if cfg.Cores != 32 {
		t.Errorf("cores = %d, want 32", cfg.Cores)
	}
	if cfg.L1Bytes != 32<<10 || cfg.L1Ways != 4 {
		t.Errorf("L1 = %d/%dw, want 32KB/4w", cfg.L1Bytes, cfg.L1Ways)
	}
	if cfg.L2Bytes != 8<<20 || cfg.L2Banks != 8 {
		t.Errorf("L2 = %d/%d banks, want 8MB/8", cfg.L2Bytes, cfg.L2Banks)
	}
	if cfg.MemControllers != 4 || cfg.MemLatency != 200 {
		t.Errorf("MCU = %d/%d, want 4 at 200 cycles", cfg.MemControllers, cfg.MemLatency)
	}
	if cfg.MemBytesPerCycle != 32 { // 64GB/s at 2GHz
		t.Errorf("bandwidth = %v B/cycle, want 32", cfg.MemBytesPerCycle)
	}
	if cfg.L1ToL2 != 4 {
		t.Errorf("L1-to-L2 = %d, want 4", cfg.L1ToL2)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemRunsAndCounts(t *testing.T) {
	cfg := tinyConfig(SetAssocH3, repl.KindLRU)
	gens := zipfGens(t, cfg, 1<<20, 0.8, 0.2)
	sys, err := NewSystem(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := m.Counts
	if c.Instructions < uint64(cfg.Cores)*cfg.InstructionsPerCore {
		t.Errorf("instructions = %d, want >= %d", c.Instructions, uint64(cfg.Cores)*cfg.InstructionsPerCore)
	}
	if c.Cycles < c.Instructions/uint64(cfg.Cores) {
		t.Errorf("cycles %d below per-core instruction count; IPC > 1 impossible", c.Cycles)
	}
	if c.L1Accesses == 0 || c.L2Accesses == 0 || c.L2Misses == 0 {
		t.Errorf("no activity recorded: %+v", c)
	}
	if c.L2Hits+c.L2Misses != c.L2Accesses {
		t.Errorf("L2 hits %d + misses %d != accesses %d", c.L2Hits, c.L2Misses, c.L2Accesses)
	}
	if c.DRAMAccesses < c.L2Misses {
		t.Errorf("DRAM accesses %d < L2 misses %d", c.DRAMAccesses, c.L2Misses)
	}
	for i, ipc := range m.PerCoreIPC {
		if ipc <= 0 || ipc > 1 {
			t.Errorf("core %d IPC = %f, want (0,1]", i, ipc)
		}
	}
	if m.BankDemandLoad <= 0 || m.BankTagLoad < m.BankDemandLoad {
		t.Errorf("bank loads: demand %f tag %f", m.BankDemandLoad, m.BankTagLoad)
	}
}

func TestSystemDeterminism(t *testing.T) {
	run := func() Metrics {
		cfg := tinyConfig(ZCacheL3, repl.KindBucketedLRU)
		cfg.InstructionsPerCore = 50_000
		gens := zipfGens(t, cfg, 1<<20, 0.8, 0.2)
		sys, err := NewSystem(cfg, gens)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Counts != b.Counts {
		t.Errorf("non-deterministic counts:\n%+v\n%+v", a.Counts, b.Counts)
	}
}

func TestInclusionInvariant(t *testing.T) {
	// Inclusive hierarchy: after any run, every L1-resident line must be
	// L2-resident. Use a small working set with sharing so back-
	// invalidations and upgrades fire.
	cfg := tinyConfig(ZCacheL2, repl.KindLRU)
	cfg.InstructionsPerCore = 100_000
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		inner, err := trace.NewZipf(uint64(i)<<40, 1<<19, 64, 0.9, 1, 0.3, uint64(i)+11)
		if err != nil {
			t.Fatal(err)
		}
		shared, err := trace.NewSharedRegion(inner, 1<<50, 1<<16, 64, 0.3, 0.4, uint64(i)+77)
		if err != nil {
			t.Fatal(err)
		}
		gens[i] = shared
	}
	sys, err := NewSystem(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if sys.invalidations == 0 {
		t.Error("shared write traffic produced no invalidations; MESI path dead")
	}
	// Both directions, exhaustively: every directory entry's sharers hold
	// the line, and every L1-resident line is L2-resident with its core's
	// sharer bit.
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	held := 0
	for cid, c := range sys.cores {
		for id := 0; id < c.l1.Array().Blocks(); id++ {
			l, ok := c.l1.LineAt(repl.BlockID(id))
			if !ok {
				continue
			}
			held++
			if d, slot := dirEntry(t, sys, l); d.sharersAt(slot)&(1<<uint(cid)) == 0 {
				t.Fatalf("core %d holds line %#x not tracked by directory", cid, l)
			}
		}
	}
	if held == 0 {
		t.Fatal("no L1 holds any line")
	}
}

// TestSingleOwnerInvariant runs shared-write traffic through every design,
// the zcaches' relocation chains included, and requires every owned slot to
// name exactly one sharer and every L1-dirty line to be its core's.
func TestSingleOwnerInvariant(t *testing.T) {
	for design := SetAssocBitSel; design.valid(); design++ {
		cfg := tinyConfig(design, repl.KindLRU)
		cfg.InstructionsPerCore = 50_000
		gens := make([]trace.Generator, cfg.Cores)
		for i := range gens {
			inner, _ := trace.NewZipf(uint64(i)<<40, 1<<18, 64, 0.8, 1, 0.3, uint64(i)+5)
			sh, _ := trace.NewSharedRegion(inner, 1<<50, 1<<14, 64, 0.5, 0.5, uint64(i)+9)
			gens[i] = sh
		}
		sys, err := NewSystem(cfg, gens)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.L2Spec().ZLevels > 1 && m.Counts.L2Relocations == 0 {
			t.Errorf("%v: no relocations; the owned bit never rode a chain", design)
		}
		owned := 0
		for b := range sys.dirs {
			dir := &sys.dirs[b]
			for id := repl.BlockID(0); int(id) < sys.banks[b].cache.Array().Blocks(); id++ {
				if !dir.ownedAt(id) {
					continue
				}
				owned++
				if sharers := dir.sharersAt(id); bits.OnesCount64(sharers) != 1 {
					t.Fatalf("%v: bank %d slot %d is owned but sharers = %b", design, b, id, sharers)
				}
			}
		}
		if owned == 0 {
			t.Errorf("%v: no slot is owned after shared writes", design)
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Errorf("%v: %v", design, err)
		}
	}
}

func TestHigherAssociativityReducesMPKIUnderConflicts(t *testing.T) {
	// A zcache with more candidates must not miss more than the 4-way
	// set-associative baseline on a conflict-prone workload.
	missRate := func(design Design) float64 {
		cfg := tinyConfig(design, repl.KindLRU)
		cfg.InstructionsPerCore = 150_000
		gens := zipfGens(t, cfg, 1<<19, 0.7, 0.1) // ~2x L2 per core
		sys, err := NewSystem(cfg, gens)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(m.Counts.L2Misses) / float64(m.Counts.Instructions) * 1000
	}
	sa := missRate(SetAssocBitSel)
	z := missRate(ZCacheL3)
	if z > sa*1.02 {
		t.Errorf("Z4/52 MPKI %.3f worse than SA-4 MPKI %.3f", z, sa)
	}
}

func TestCaptureAndReplayAgreeWithExecution(t *testing.T) {
	// For the same design and policy, trace-driven replay should land
	// near the execution-driven result (it lacks back-invalidation
	// feedback, so demand exact equality only on MPKI magnitude).
	cfg := tinyConfig(SetAssocH3, repl.KindLRU)
	cfg.InstructionsPerCore = 100_000
	mkGens := func() []trace.Generator { return zipfGens(t, cfg, 1<<20, 0.8, 0.2) }

	sys, err := NewSystem(cfg, mkGens())
	if err != nil {
		t.Fatal(err)
	}
	exec, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	stream, err := CaptureL2Stream(cfg, mkGens())
	if err != nil {
		t.Fatal(err)
	}
	replay, err := ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	em := float64(exec.Counts.L2Misses) / float64(exec.Counts.Instructions)
	rm := float64(replay.Counts.L2Misses) / float64(replay.Counts.Instructions)
	if rm < em*0.7 || rm > em*1.3 {
		t.Errorf("replay miss ratio %.5f vs execution %.5f: divergence > 30%%", rm, em)
	}
}

func TestReplayOPTBeatsLRU(t *testing.T) {
	// Belady is (near-)optimal: on the same stream and design, OPT must
	// not miss more than LRU.
	cfg := tinyConfig(SetAssocH3, repl.KindLRU)
	cfg.InstructionsPerCore = 100_000
	stream, err := CaptureL2Stream(cfg, zipfGens(t, cfg, 1<<20, 0.8, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	lru, err := ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	cfg.L2Policy = repl.KindOPT
	opt, err := ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Counts.L2Misses > lru.Counts.L2Misses {
		t.Errorf("OPT misses %d > LRU misses %d", opt.Counts.L2Misses, lru.Counts.L2Misses)
	}
}

func TestReplayEmptyStreamRejected(t *testing.T) {
	cfg := tinyConfig(SetAssocH3, repl.KindLRU)
	if _, err := ReplayL2(cfg, &L2Stream{}); err == nil {
		t.Error("empty stream accepted")
	}
}

func TestAllDesignsAndPoliciesRun(t *testing.T) {
	for _, d := range []Design{SetAssocBitSel, SetAssocH3, SkewAssoc, ZCacheL2, ZCacheL3} {
		for _, p := range []repl.Kind{repl.KindLRU, repl.KindBucketedLRU, repl.KindRandom, repl.KindLFU, repl.KindSRRIP, repl.KindDRRIP} {
			cfg := tinyConfig(d, p)
			cfg.InstructionsPerCore = 20_000
			sys, err := NewSystem(cfg, zipfGens(t, cfg, 1<<19, 0.8, 0.2))
			if err != nil {
				t.Fatalf("%v/%v: %v", d, p, err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatalf("%v/%v: %v", d, p, err)
			}
		}
	}
}

func TestMemoryBandwidthQueueingBites(t *testing.T) {
	// Streaming misses at full tilt must see queueing delays: constrain
	// bandwidth hard and verify IPC drops versus an unconstrained run.
	run := func(bw float64) float64 {
		cfg := tinyConfig(SetAssocH3, repl.KindLRU)
		cfg.MemBytesPerCycle = bw
		cfg.InstructionsPerCore = 50_000
		gens := make([]trace.Generator, cfg.Cores)
		for i := range gens {
			g, _ := trace.NewStream(uint64(i)<<40, 1<<26, 64, 0, 0, 1, 0, uint64(i)+3)
			gens[i] = g
		}
		sys, _ := NewSystem(cfg, gens)
		m, _ := sys.Run()
		total := 0.0
		for _, ipc := range m.PerCoreIPC {
			total += ipc
		}
		return total
	}
	fast, slow := run(512), run(1)
	if slow >= fast {
		t.Errorf("bandwidth throttling has no effect: slow %.3f >= fast %.3f", slow, fast)
	}
}

func TestDesignStrings(t *testing.T) {
	if SetAssocH3.String() != "sa-h3" || ZCacheL3.String() != "z-L3" {
		t.Error("design names broken")
	}
	if ZCacheL3.Spec(4).WalkLevels() != 3 || SkewAssoc.Spec(4).WalkLevels() != 1 || SetAssocH3.Spec(4).WalkLevels() != 0 {
		t.Error("walk depths broken")
	}
}

func BenchmarkSystemThroughput(b *testing.B) {
	cfg := tinyConfig(ZCacheL3, repl.KindBucketedLRU)
	cfg.InstructionsPerCore = uint64(b.N)/uint64(cfg.Cores) + 1000
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		g, _ := trace.NewZipf(uint64(i)<<40, 1<<20, 64, 0.8, 2, 0.2, uint64(i)+1)
		gens[i] = g
	}
	sys, _ := NewSystem(cfg, gens)
	b.ResetTimer()
	if _, err := sys.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestBankQueueDelaysContendingAccesses(t *testing.T) {
	// The bank port issues one demand access per cycle: a burst arriving
	// together must serialize.
	var port queue
	if d := port.wait(100, 1); d != 0 {
		t.Errorf("first access delayed %d", d)
	}
	if d := port.wait(100, 1); d != 1 {
		t.Errorf("second access delayed %d, want 1", d)
	}
	if d := port.wait(100, 1); d != 2 {
		t.Errorf("third access delayed %d, want 2", d)
	}
	// After the burst drains, a late access sees no queue.
	if d := port.wait(1000, 1); d != 0 {
		t.Errorf("post-drain access delayed %d", d)
	}
}

func TestBankContentionSlowsHotBankTraffic(t *testing.T) {
	// All cores hammering lines of one bank must see lower aggregate IPC
	// than the same traffic spread across banks.
	run := func(spread bool) float64 {
		cfg := tinyConfig(SetAssocH3, repl.KindLRU)
		cfg.InstructionsPerCore = 40_000
		gens := make([]trace.Generator, cfg.Cores)
		for i := range gens {
			// Hot: every line ≡ 0 mod banks (all traffic to bank 0).
			// Spread: consecutive lines rotate across banks. Both
			// streams fit the L2 (hit-dominated) but miss the L1.
			accs := make([]trace.Access, 0, int(cfg.InstructionsPerCore))
			for k := 0; len(accs) < int(cfg.InstructionsPerCore); k++ {
				line := uint64(k % 1024)
				if !spread {
					line *= uint64(cfg.L2Banks)
				}
				accs = append(accs, trace.Access{Addr: uint64(i)<<40 | line*cfg.LineBytes})
			}
			gens[i] = trace.NewReplay("bankpin", accs)
		}
		sys, err := NewSystem(cfg, gens)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, ipc := range m.PerCoreIPC {
			total += ipc
		}
		return total
	}
	hot, cold := run(false), run(true)
	if hot >= cold {
		t.Errorf("single-bank traffic IPC %.3f not below spread traffic %.3f", hot, cold)
	}
}

func TestWarmupExcludesColdMisses(t *testing.T) {
	// With warmup covering the working set, the measured phase must show
	// a much lower miss ratio than a cold-start run of the same length.
	run := func(warmup uint64) float64 {
		cfg := tinyConfig(SetAssocH3, repl.KindLRU)
		cfg.InstructionsPerCore = 30_000
		cfg.WarmupInstructionsPerCore = warmup
		gens := zipfGens(t, cfg, 1<<16, 0.4, 0.2) // fits the L2
		sys, err := NewSystem(cfg, gens)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		if m.Counts.Instructions < uint64(cfg.Cores)*cfg.InstructionsPerCore {
			t.Fatalf("measured instructions %d below target", m.Counts.Instructions)
		}
		for _, ipc := range m.PerCoreIPC {
			if ipc <= 0 || ipc > 1 {
				t.Fatalf("per-core IPC %f out of range after warmup", ipc)
			}
		}
		return float64(m.Counts.L2Misses) / float64(m.Counts.L2Accesses+1)
	}
	cold, warm := run(0), run(60_000)
	if warm >= cold/2 {
		t.Errorf("warmup did not strip cold misses: cold ratio %.4f, warm %.4f", cold, warm)
	}
}

func TestDirtyDataReachesDRAM(t *testing.T) {
	// Write-heavy traffic with eviction pressure: dirty L2 victims must
	// generate DRAM writebacks (DRAM accesses exceed demand misses).
	cfg := tinyConfig(SetAssocH3, repl.KindLRU)
	cfg.InstructionsPerCore = 100_000
	gens := zipfGens(t, cfg, 1<<21, 0.4, 0.5) // 8x L2, 50% writes
	sys, err := NewSystem(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	c := m.Counts
	if c.Writebacks == 0 {
		t.Fatal("no writebacks under write-heavy eviction pressure")
	}
	if c.DRAMAccesses <= c.L2Misses {
		t.Errorf("DRAM accesses %d do not exceed demand misses %d; writebacks lost", c.DRAMAccesses, c.L2Misses)
	}
}

func TestReplayHandlesFullyFilteredStreams(t *testing.T) {
	// A blackscholes-class workload (fits the L1) leaves nothing for the
	// L2 after warmup; replay must report IPC=1 rather than failing.
	stream := &L2Stream{
		Instructions:        4 * 10000,
		L1Accesses:          4 * 3000,
		PerCoreInstructions: []uint64{10000, 10000, 10000, 10000},
	}
	cfg := tinyConfig(ZCacheL3, repl.KindLRU)
	m, err := ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	if m.Counts.L2Accesses != 0 || m.Counts.Cycles != 10000 {
		t.Errorf("unexpected metrics: %+v", m.Counts)
	}
	for _, ipc := range m.PerCoreIPC {
		if ipc != 1.0 {
			t.Errorf("IPC = %f, want 1.0", ipc)
		}
	}
	if _, err := ReplayL2(cfg, &L2Stream{}); err == nil {
		t.Error("zero-instruction stream accepted")
	}
}
