package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"zcache/internal/repl"
	"zcache/internal/trace"
)

// systemDigests pins System.Run's Metrics (counts, per-core IPC, bank
// loads, Invalidations, L1Misses), bit for bit, for every design under both
// LRU variants, as the SHA-256 of their JSON. The traffic is sharedGens':
// shared-region reads and writes on top of private footprints well beyond
// the L2, so back-invalidations, owner forwards, write upgrades, dirty L1
// and L2 writebacks and zcache relocations all fire, across a warm-up
// boundary. A coherence or controller change that is meant to alter a
// statistic must say so and re-record; a refactor must not touch this table.
var systemDigests = map[string]string{
	"sa/lru-full":    "5fa740a7d9ddaf75046c3f43c728191612e3b07c9f104fcd34177dc10300dd88",
	"sa/lru":         "3cf4076ba1bd2aa541360616b60c47b84af486bcb019fe4c4f0f56074db4d099",
	"sa-h3/lru-full": "0bad7ebca9a64a6482eeb326e73ffbe7d0b43d233facf6fa31c0dc9c92709235",
	"sa-h3/lru":      "3e55e75f4cd13927e0e74ddb30bbce950bea2cd8ab381ac94d10dc22cd491f17",
	"skew/lru-full":  "fff324486d5c74a8cd77913d7d730c74781319883b723181b7fc45dc517a9227",
	"skew/lru":       "806e13913ca38431c0fdeb6da8849b0f52aa0183ae0f3427e3f5cff421f0d01c",
	"z-L2/lru-full":  "d80321ead970f198f1d881bfd81e9359b838a162e778e8773eaa1016785129f3",
	"z-L2/lru":       "8b7f4cc5c8183749715a9e6de436ad523d039c059d25c81ab09eb813e52ba40c",
	"z-L3/lru-full":  "9559dd06181691093295939775aa1cee0a322843c5b2d29da57e25b0e04210a7",
	"z-L3/lru":       "b9e12883ff5dd6ac2cc4d5bc1baabdf2a7d908f23fb3369d14008c87a965a89d",
}

// sharedGens builds one generator per core: a private 512 KB Zipf footprint
// with 30% stores, 40% of whose accesses are redirected to a 64 KB region all
// cores share, half of them stores.
func sharedGens(t testing.TB, cfg Config) []trace.Generator {
	t.Helper()
	gens := make([]trace.Generator, cfg.Cores)
	for i := range gens {
		inner, err := trace.NewZipf(uint64(i)<<40, 1<<19, cfg.LineBytes, 0.9, 1, 0.3, uint64(i)+11)
		if err != nil {
			t.Fatal(err)
		}
		if gens[i], err = trace.NewSharedRegion(inner, 1<<50, 1<<16, cfg.LineBytes, 0.4, 0.5, uint64(i)+77); err != nil {
			t.Fatal(err)
		}
	}
	return gens
}

// TestSystemDigestsPinned runs the table above.
func TestSystemDigestsPinned(t *testing.T) {
	for d := SetAssocBitSel; d.valid(); d++ {
		for _, pol := range []repl.Kind{repl.KindLRU, repl.KindBucketedLRU} {
			name := fmt.Sprintf("%v/%v", d, pol)
			cfg := tinyConfig(d, pol)
			cfg.InstructionsPerCore = 60_000
			cfg.WarmupInstructionsPerCore = 20_000
			sys, err := NewSystem(cfg, sharedGens(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			m, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			if m.Invalidations == 0 || m.Counts.L2Misses == 0 {
				t.Errorf("%s: traffic too tame: %d invalidations, %d L2 misses", name, m.Invalidations, m.Counts.L2Misses)
			}
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got, want := hex.EncodeToString(sum[:]), systemDigests[name]; got != want {
				t.Errorf("%q: %q, // want %q\n%s", name, got, want, raw)
			}
		}
	}
}

// coreCountDigests pins System.Run's Metrics, as systemDigests does, at core
// counts whose directory sharer fields differ in width (1, 3 and 64 cores),
// on a set-associative and a zcache L2 under full LRU, with Config.Check
// armed so every phase boundary also verifies the coherence invariants.
var coreCountDigests = map[string]string{
	"sa/1":    "bef50c235a649af7b51d260860e1f360cdf614859bce2d4249fcac37ac68d198",
	"sa/3":    "30e947e26c7acc8b61dd8a4c2c4f8562f5bece0e489e81965c57354fef974c7d",
	"sa/64":   "753510156ab9d076077cf0c9ec13f31521c0c7367ecfca87525cd575b9c69f2d",
	"z-L3/1":  "e44333cf552eeca0ef76d6709b225ee6367ec257f7fabbb3b87393991d8cc6c9",
	"z-L3/3":  "d72a8d4aba09d4c6534596f3e51f874c409a9f258910eae00ae1f0eb137411df",
	"z-L3/64": "30a9798d0eba511e10476ab227197b4c3950eed500589ef7efe606d6946ca7c3",
}

// TestSystemDigestsAcrossCoreCounts runs the table above.
func TestSystemDigestsAcrossCoreCounts(t *testing.T) {
	for _, d := range []Design{SetAssocBitSel, ZCacheL3} {
		for _, cores := range []int{1, 3, 64} {
			name := fmt.Sprintf("%v/%d", d, cores)
			cfg := tinyConfig(d, repl.KindLRU)
			cfg.Cores = cores
			cfg.InstructionsPerCore = 240_000 / uint64(cores)
			cfg.WarmupInstructionsPerCore = cfg.InstructionsPerCore / 3
			cfg.Check = true
			sys, err := NewSystem(cfg, sharedGens(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			m, err := sys.Run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// With one core nothing is shared, and its 8 KB L1 drops a
			// line long before the 256 KB L2 evicts it.
			if (cores > 1 && m.Invalidations == 0) || m.Counts.L2Misses == 0 {
				t.Errorf("%s: traffic too tame: %d invalidations, %d L2 misses", name, m.Invalidations, m.Counts.L2Misses)
			}
			if got, want := metricsDigest(t, m), coreCountDigests[name]; got != want {
				t.Errorf("%q: %q, // want %q", name, got, want)
			}
		}
	}
}

// replayDigests pins ReplayL2's Metrics under full LRU on a stream captured
// from sharedGens, for every design: the trace-driven path's L2 banks run the
// same replacement policy as System's without a directory beside it.
var replayDigests = map[string]string{
	"sa":    "c1d140a5248345c585ef7f0bf96e3867f83c65d5dfa83cb0c7f987ac55ea96e6",
	"sa-h3": "0833d6461dd497376653bb5fc79a74cbaad1fdde615aa1997541bb2cff8321e9",
	"skew":  "b6507ce5f0c12ebc14a65487574a4818f3f0214475fcb8738f386b32b289b079",
	"z-L2":  "bbfc5ecd891d9a8fd910b128cb8d6b3aab181dce677e7699cd5bc6bbbe000992",
	"z-L3":  "1afcfca824642ec4b4e385a9bfd28d545fac7a26d5ab20ea033944e582a0abfc",
}

// TestReplayDigestsPinned runs the table above.
func TestReplayDigestsPinned(t *testing.T) {
	cfg := tinyConfig(SetAssocBitSel, repl.KindLRU)
	cfg.InstructionsPerCore = 60_000
	stream, err := CaptureL2Stream(cfg, sharedGens(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	for d := SetAssocBitSel; d.valid(); d++ {
		cfg.Design = d
		m, err := ReplayL2(cfg, stream)
		if err != nil {
			t.Fatal(err)
		}
		if m.Counts.L2Misses == 0 {
			t.Errorf("%v: no L2 misses", d)
		}
		if got, want := metricsDigest(t, m), replayDigests[d.String()]; got != want {
			t.Errorf("%q: %q, // want %q", d.String(), got, want)
		}
	}
}

// metricsDigest is the SHA-256 of m's JSON.
func metricsDigest(t *testing.T, m Metrics) string {
	t.Helper()
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}
