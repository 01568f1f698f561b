package sim

import (
	"testing"

	"zcache/internal/repl"
)

// TestCheckModeCleanAndBehaviourPreserving: enabling Config.Check must
// neither trip an invariant on a healthy system nor perturb its metrics —
// the checks run only at phase boundaries exactly so counters stay
// untouched.
func TestCheckModeCleanAndBehaviourPreserving(t *testing.T) {
	for _, design := range []Design{SetAssocH3, ZCacheL3} {
		run := func(checkOn bool) Metrics {
			cfg := tinyConfig(design, repl.KindBucketedLRU)
			cfg.InstructionsPerCore = 50_000
			cfg.WarmupInstructionsPerCore = 10_000
			cfg.Check = checkOn
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
		plain, checked := run(false), run(true)
		if plain.Counts != checked.Counts {
			t.Errorf("%v: check mode changed behaviour:\n plain %+v\n check %+v",
				design, plain.Counts, checked.Counts)
		}
	}
}

// TestCheckInvariantsExplicitPass: after a full run the directory, MESI
// state, and inclusion property all verify on demand.
func TestCheckInvariantsExplicitPass(t *testing.T) {
	cfg := tinyConfig(ZCacheL3, repl.KindLRU)
	cfg.InstructionsPerCore = 30_000
	gens := zipfGens(t, cfg, 1<<20, 0.8, 0.3)
	sys, err := NewSystem(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("healthy system failed invariant check: %v", err)
	}
}

// TestReplayCheckModeBehaviourPreserving covers the trace-driven path:
// candidate-forest checks on the replay banks must not change metrics.
func TestReplayCheckModeBehaviourPreserving(t *testing.T) {
	cfg := tinyConfig(ZCacheL3, repl.KindBucketedLRU)
	cfg.InstructionsPerCore = 40_000
	gens := zipfGens(t, cfg, 1<<20, 0.8, 0.2)
	stream, err := CaptureL2Stream(cfg, gens)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := ReplayL2(cfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg
	ccfg.Check = true
	checked, err := ReplayL2(ccfg, stream)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Counts != checked.Counts {
		t.Errorf("replay check mode changed behaviour:\n plain %+v\n check %+v",
			plain.Counts, checked.Counts)
	}
}
