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
