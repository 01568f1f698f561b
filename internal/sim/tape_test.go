// Tape equivalence: a System fed from RecordTape's per-core prefixes must
// run bit-identically to one fed from the workload's generators, and each
// tape must hold exactly what the core consumed. This keeps RecordTape's
// draw rule in step with coreHeap.due.
package sim

import (
	"fmt"
	"reflect"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/repl"
	"zcache/internal/trace"
	"zcache/internal/workloads"
)

// counted tallies every access a System pulls from the generator it wraps,
// including those left unread in the core's batch buffer.
type counted struct {
	inner trace.Generator
	n     int
}

func (g *counted) Next() (trace.Access, bool) {
	a, ok := g.inner.Next()
	if ok {
		g.n++
	}
	return a, ok
}

func (g *counted) NextBatch(buf []trace.Access) int {
	n := trace.FillBatch(g.inner, buf)
	g.n += n
	return n
}

func (g *counted) Reset()       { g.inner.Reset() }
func (g *counted) Name() string { return g.inner.Name() }

func TestTapeReplayMatchesGenerators(t *testing.T) {
	// fluidanimate threads share a region (PARSEC), mcf chases pointers and
	// libquantum streams.
	for _, name := range []string{"fluidanimate", "mcf", "libquantum"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %q", name)
		}
		for _, d := range []Design{SetAssocBitSel, SetAssocH3, SkewAssoc, ZCacheL2, ZCacheL3} {
			for _, lk := range []energy.Lookup{energy.Serial, energy.Parallel} {
				t.Run(fmt.Sprintf("%s/%v/%v", name, d, lk), func(t *testing.T) {
					cfg := tinyConfig(d, repl.KindLRU)
					cfg.Lookup = lk
					cfg.InstructionsPerCore, cfg.WarmupInstructionsPerCore = 30_000, 10_000
					gens := func() []trace.Generator {
						gs, err := w.Generators(cfg.Cores, cfg.LineBytes, cfg.L2Bytes, cfg.Seed)
						if err != nil {
							t.Fatal(err)
						}
						return gs
					}

					direct := gens()
					for i, g := range direct {
						direct[i] = &counted{inner: g}
					}
					sysA, err := NewSystem(cfg, direct)
					if err != nil {
						t.Fatal(err)
					}
					mA, err := sysA.Run()
					if err != nil {
						t.Fatal(err)
					}

					replays := gens()
					for i, g := range replays {
						tape := RecordTape(cfg, g)
						c := sysA.cores[i]
						if consumed := direct[i].(*counted).n - (c.bufLen - c.bufPos); len(tape) != consumed {
							t.Fatalf("core %d: tape holds %d accesses, the System consumed %d", i, len(tape), consumed)
						}
						replays[i] = trace.NewReplay(name, tape)
					}
					sysB, err := NewSystem(cfg, replays)
					if err != nil {
						t.Fatal(err)
					}
					mB, err := sysB.Run()
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(mA, mB) {
						t.Fatalf("metrics diverge:\ngenerators %+v\ntapes      %+v", mA, mB)
					}
				})
			}
		}
	}
}

// TestTapeEndsWithItsStream: a stream shorter than the run ends the tape,
// and the System replaying it sees the same end.
func TestTapeEndsWithItsStream(t *testing.T) {
	cfg := tinyConfig(SetAssocH3, repl.KindLRU)
	cfg.InstructionsPerCore, cfg.WarmupInstructionsPerCore = 50_000, 10_000
	short := func() []trace.Generator {
		gens := make([]trace.Generator, cfg.Cores)
		for i := range gens {
			accs := make([]trace.Access, 1000*(i+1)) // core 3's outlasts warm-up
			for k := range accs {
				accs[k] = trace.Access{Addr: uint64(i)<<40 | uint64(k)<<6, Gap: 3}
			}
			gens[i] = trace.NewReplay("short", accs)
		}
		return gens
	}
	tapes := short()
	for i, g := range tapes {
		tape := RecordTape(cfg, g)
		if want := 1000 * (i + 1); len(tape) != want {
			t.Fatalf("core %d: tape %d accesses, want the whole %d-access stream", i, len(tape), want)
		}
		tapes[i] = trace.NewReplay("tape", tape)
	}
	run := func(gens []trace.Generator) Metrics {
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
	if a, b := run(short()), run(tapes); !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics diverge:\nstream %+v\ntape   %+v", a, b)
	}
}
