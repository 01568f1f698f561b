// Drive-path equivalence: the batched per-core prefetch buffers must leave
// every simulation outcome bit-identical to the per-access Next() drive.
package sim

import (
	"reflect"
	"testing"

	"zcache/internal/repl"
	"zcache/internal/trace"
)

// nextOnly hides a generator's NextBatch so trace.FillBatch falls back to
// the one-access-at-a-time adapter — the reference drive path.
type nextOnly struct{ inner trace.Generator }

func (g *nextOnly) Next() (trace.Access, bool) { return g.inner.Next() }
func (g *nextOnly) Reset()                     { g.inner.Reset() }
func (g *nextOnly) Name() string               { return g.inner.Name() }

// wrapNextOnly wraps every generator in the slice.
func wrapNextOnly(gens []trace.Generator) []trace.Generator {
	out := make([]trace.Generator, len(gens))
	for i, g := range gens {
		out[i] = &nextOnly{inner: g}
	}
	return out
}

// TestRunBatchedDriveMatchesNext compares full execution-driven metrics —
// IPC, miss counts, bandwidth loads, invalidations — between the batched
// generator drive and the per-access reference, including a warmup phase so
// the buffer-persistence-across-phases property is exercised.
func TestRunBatchedDriveMatchesNext(t *testing.T) {
	for _, design := range []Design{SetAssocH3, ZCacheL2} {
		t.Run(designLabel(design), func(t *testing.T) {
			cfg := tinyConfig(design, repl.KindLRU)
			cfg.InstructionsPerCore = 100_000
			cfg.WarmupInstructionsPerCore = 20_000

			sysA, err := NewSystem(cfg, zipfGens(t, cfg, 512<<10, 0.8, 0.3))
			if err != nil {
				t.Fatal(err)
			}
			mA, err := sysA.Run()
			if err != nil {
				t.Fatal(err)
			}

			sysB, err := NewSystem(cfg, wrapNextOnly(zipfGens(t, cfg, 512<<10, 0.8, 0.3)))
			if err != nil {
				t.Fatal(err)
			}
			mB, err := sysB.Run()
			if err != nil {
				t.Fatal(err)
			}

			if !reflect.DeepEqual(mA, mB) {
				t.Fatalf("metrics diverge between drive paths:\nbatched   %+v\nper-access %+v", mA, mB)
			}
		})
	}
}

// TestCaptureBatchedDriveMatchesNext does the same for the trace-driven
// capture path: the captured L2 stream must be identical element for
// element.
func TestCaptureBatchedDriveMatchesNext(t *testing.T) {
	cfg := tinyConfig(SetAssocH3, repl.KindLRU)
	cfg.InstructionsPerCore = 100_000
	cfg.WarmupInstructionsPerCore = 20_000

	a, err := CaptureL2Stream(cfg, zipfGens(t, cfg, 512<<10, 0.8, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CaptureL2Stream(cfg, wrapNextOnly(zipfGens(t, cfg, 512<<10, 0.8, 0.3)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("captured streams diverge: %d vs %d refs", len(a.Refs), len(b.Refs))
	}
}

// designLabel names a design for subtests without relying on Config
// stringers.
func designLabel(d Design) string {
	switch d {
	case SetAssocH3:
		return "setassoc-h3"
	case ZCacheL2:
		return "zcache"
	default:
		return "design"
	}
}
