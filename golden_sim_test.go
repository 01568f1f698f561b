package zcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/workloads"
)

// goldenSimDigests pins sim.Metrics, bit for bit, for every driver of the
// banked L2 model: execution-driven (System.Run, with warm-up), trace-driven
// full replay (ReplayL2 under OPT and under LRU) and the sampled executor
// (sample.RunLookups with both lookups, so the second timing variant's
// stalls are covered). Each value is the SHA-256 of the metrics' JSON,
// recorded at the commit before the drivers were moved onto one shared
// bank/MCU/counter core. A simulator change that is meant to alter a
// statistic must say so and re-record; a refactor must not touch this table.
var goldenSimDigests = map[string]string{
	"canneal/SA-4/replay-lru":    "3eb1091b8baa4ae9daf7083b3c3d39a228e6dccc96c884c4e408dcf647cb9174",
	"canneal/SA-4/replay-opt":    "ea5ed26ff0817b423bfa827a3c8e562d1b17018c31eb40097f89e71a97219f2c",
	"canneal/SA-4/sampled-blru":  "8b7c0758da06f2debebf3f36341e73f7024638fda9f685b9ecbdb8c01f86ef75",
	"canneal/SA-4/system-blru":   "646d0e165e52402a70629df7a7af1cb285c666d2a49ecb29eb575d3f8bbb7cdd",
	"canneal/Z4/52/replay-lru":   "3546a946c90b7e07698acdf3cd088f3f120be0cbbd321cd6e3ce8c890136393a",
	"canneal/Z4/52/replay-opt":   "12ce9e5b78f436030737b6014eba45459e7e2eb4f26453178be831bf5eac28fa",
	"canneal/Z4/52/sampled-blru": "83a09c24b45504ca36610b45689ef95480d6c20862c8c99660b0d240ca171402",
	"canneal/Z4/52/system-blru":  "2c08e161337a16dfd7af322a9f56271716687bb8f2503cd238741468676ae9f5",
	"empty-stream/SA-4/replay":   "ba04945dc7d70ff60f509b2dcf7b7c8be24a6ed4f837d02a3ec36ed83c4eee7b",
	"empty-stream/SA-4/sampled":  "335da73c094f400385bee6d945dcbfdc885143e5036afedb091b7f2d62ecff73",
	"empty-stream/Z4/52/replay":  "ba04945dc7d70ff60f509b2dcf7b7c8be24a6ed4f837d02a3ec36ed83c4eee7b",
	"empty-stream/Z4/52/sampled": "335da73c094f400385bee6d945dcbfdc885143e5036afedb091b7f2d62ecff73",
	"gamess/SA-4/sampled-blru":   "98cbcbfa20b6f16ff4cac0e832635b5dbac5cf3170f3543bc63e963e4195edbf",
	"gamess/Z4/52/sampled-blru":  "98cbcbfa20b6f16ff4cac0e832635b5dbac5cf3170f3543bc63e963e4195edbf",
}

// TestGoldenSimMetrics replays the table above. canneal is the
// cache-sensitive workload (misses, relocations and MCU queueing all fire);
// gamess is a small-footprint stream that never evicts, so its sampled rows
// cover legs of hits and cold misses only; the empty-stream rows cover the
// L1-resident degenerate case.
func TestGoldenSimMetrics(t *testing.T) {
	e := NewExperiment(TestPreset())
	z452 := DesignPoint{Label: "Z4/52", Design: sim.ZCacheL3, Ways: 4}
	lookups := []energy.Lookup{energy.Serial, energy.Parallel}

	check := func(name string, v any) {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(raw)
		got := hex.EncodeToString(sum[:])
		want, ok := goldenSimDigests[name]
		if !ok {
			t.Errorf("%s: no golden digest (got %s)", name, got)
		} else if got != want {
			t.Errorf("%s: digest %s, want %s\n%s", name, got, want, raw)
		}
	}
	sampled := func(name string, cfg sim.Config, stream *sim.L2Stream, spec sample.Spec) {
		t.Helper()
		plan, err := sample.BuildPlan(stream, cfg.L2Bytes/cfg.LineBytes, spec)
		if err != nil {
			t.Fatal(err)
		}
		ms, est, err := sample.RunLookups(cfg, stream, plan, lookups)
		if err != nil {
			t.Fatal(err)
		}
		check(name, struct {
			Metrics  []sim.Metrics
			Estimate sample.Estimate
		}{ms, est})
	}

	for _, d := range []DesignPoint{BaselineDesign(), z452} {
		for _, wname := range []string{"canneal", "gamess"} {
			w, ok := workloads.ByName(wname)
			if !ok {
				t.Fatalf("unknown workload %s", wname)
			}
			prefix := wname + "/" + d.Label + "/"
			stream, err := e.Capture(w)
			if err != nil {
				t.Fatal(err)
			}
			blru := e.Config(d, PolicyBucketedLRU, energy.Serial)
			sampled(prefix+"sampled-blru", blru, stream, sample.Spec{})
			if wname != "canneal" {
				continue
			}

			gens, err := w.Generators(blru.Cores, blru.LineBytes, blru.L2Bytes, blru.Seed)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := sim.NewSystem(blru, gens)
			if err != nil {
				t.Fatal(err)
			}
			m, err := sys.Run()
			if err != nil {
				t.Fatal(err)
			}
			check(prefix+"system-blru", m)

			for _, p := range []struct {
				name string
				pol  PolicyKind
			}{{"replay-opt", PolicyOPT}, {"replay-lru", PolicyLRU}} {
				m, err := sim.ReplayL2(e.Config(d, p.pol, energy.Serial), stream)
				if err != nil {
					t.Fatal(err)
				}
				check(prefix+p.name, m)
			}
		}

		// A blackscholes-class stream: the L1s absorb everything.
		cfg := e.Config(d, PolicyBucketedLRU, energy.Serial)
		empty := &sim.L2Stream{Instructions: 4 * 10000, L1Accesses: 4 * 3000,
			PerCoreInstructions: []uint64{10000, 9000, 10000, 7000}}
		m, err := sim.ReplayL2(cfg, empty)
		if err != nil {
			t.Fatal(err)
		}
		check("empty-stream/"+d.Label+"/replay", m)
		sampled("empty-stream/"+d.Label+"/sampled", cfg, empty, sample.Spec{})
	}
}
