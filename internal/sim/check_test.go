package sim

import (
	"reflect"
	"testing"

	"zcache/internal/check"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

// TestCheckModeCleanAndBehaviourPreserving: enabling Config.Check must
// neither trip an invariant on a healthy system nor perturb its metrics, on
// any design, under shared-write traffic that exercises every coherence path.
func TestCheckModeCleanAndBehaviourPreserving(t *testing.T) {
	for d := SetAssocBitSel; d.valid(); d++ {
		run := func(checkOn bool) Metrics {
			cfg := tinyConfig(d, repl.KindBucketedLRU)
			cfg.InstructionsPerCore = 50_000
			cfg.WarmupInstructionsPerCore = 10_000
			cfg.Check = checkOn
			sys, err := NewSystem(cfg, sharedGens(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			m, err := sys.Run()
			if err != nil {
				t.Fatalf("%v: %v", d, err)
			}
			return m
		}
		plain, checked := run(false), run(true)
		if !reflect.DeepEqual(plain, checked) {
			t.Errorf("%v: check mode changed behaviour:\n plain %+v\n check %+v", d, plain, checked)
		}
	}
}

// TestCheckInvariantsCatchCorruption breaks one invariant at a time in a
// warm system and requires CheckInvariants to name it.
func TestCheckInvariantsCatchCorruption(t *testing.T) {
	for _, c := range []struct {
		invariant string
		// name, if set, tells apart two cases of one invariant.
		name string
		// cores, if set, replaces tinyConfig's 4.
		cores   int
		corrupt func(t *testing.T, s *System)
	}{
		{"sim/dir-empty-slot", "", 0, func(t *testing.T, s *System) {
			// Empty slot 0 the way the protocol would, then leave a
			// sharer behind in it.
			emptySlot0(t, s)
			s.dirs[0].setSharers(0, 1)
		}},
		{"sim/dir-empty-slot", "sim/dir-empty-slot-owned", 0, func(t *testing.T, s *System) {
			// The same, leaving the owned bit behind instead.
			emptySlot0(t, s)
			s.dirs[0].setOwned(0, true)
		}},
		{"sim/inclusion", "", 0, func(t *testing.T, s *System) {
			line, _ := s.cores[1].l1.LineAt(residentL1Slot(t, s, 1))
			d, id := dirEntry(t, s, line)
			d.setSharers(id, d.sharersAt(id)&^(1<<1))
			d.setOwned(id, false)
		}},
		{"sim/dir-l1", "", 0, func(t *testing.T, s *System) {
			line, _ := s.cores[2].l1.LineAt(residentL1Slot(t, s, 2))
			s.cores[2].l1.Invalidate(line << s.lineBits)
		}},
		{"sim/mesi-owner", "", 0, func(t *testing.T, s *System) {
			// M state on a mask that names core 3 and core 0.
			line, _ := s.cores[3].l1.LineAt(residentL1Slot(t, s, 3))
			d, id := dirEntry(t, s, line)
			d.setSharers(id, d.sharersAt(id)|1<<3|1<<0)
			d.setOwned(id, true)
		}},
		{"sim/mesi-sharers", "", 3, func(t *testing.T, s *System) {
			// Three cores get 4-bit sharer fields: name a fourth core
			// on a resident line.
			line, _ := s.cores[0].l1.LineAt(residentL1Slot(t, s, 0))
			d, id := dirEntry(t, s, line)
			d.setSharers(id, d.sharersAt(id)|1<<3)
		}},
		{"sim/l1-slot", "", 0, func(t *testing.T, s *System) {
			// Core 1 records a stale L2 slot for one of its lines.
			id := residentL1Slot(t, s, 1)
			line, _ := s.cores[1].l1.LineAt(id)
			_, slot := dirEntry(t, s, line)
			s.cores[1].l2Slot[id] = uint32(slot) ^ 1
		}},
		{"sim/mesi-dirty", "", 0, func(t *testing.T, s *System) {
			// A store that hits core 0's L1 without the upgrade the
			// protocol would send leaves a dirty copy its directory
			// does not name the owner of.
			l1 := s.cores[0].l1
			for id := repl.BlockID(0); int(id) < l1.Array().Blocks(); id++ {
				line, ok := l1.LineAt(id)
				if !ok || l1.DirtyAt(id) {
					continue
				}
				if d, slot := dirEntry(t, s, line); d.owner(slot) != 0 {
					l1.Access(line<<s.lineBits, true)
					return
				}
			}
			t.Fatal("core 0's L1 holds no clean line it does not own")
		}},
	} {
		name := c.invariant
		if c.name != "" {
			name = c.name
		}
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(ZCacheL3, repl.KindLRU)
			cfg.InstructionsPerCore = 30_000
			if c.cores != 0 {
				cfg.Cores = c.cores
			}
			sys, err := NewSystem(cfg, sharedGens(t, cfg))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			c.corrupt(t, sys)
			v, ok := check.AsViolation(sys.CheckInvariants())
			if !ok || v.Invariant != c.invariant {
				t.Fatalf("CheckInvariants = %v, want a %s violation", v, c.invariant)
			}
		})
	}
}

// TestStaleLinkFailsAtTheAccess: in check mode a stale L1-to-L2 link stops
// the run at the first access that reads it, before the access charges or
// edits another line's L2 slot, rather than at the next phase end.
func TestStaleLinkFailsAtTheAccess(t *testing.T) {
	cfg := tinyConfig(ZCacheL3, repl.KindLRU)
	cfg.InstructionsPerCore = 30_000
	cfg.Check = true
	sys, err := NewSystem(cfg, sharedGens(t, cfg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	c := sys.cores[1]
	id := residentL1Slot(t, sys, 1)
	line, _ := c.l1.LineAt(id)
	_, slot := dirEntry(t, sys, line)
	c.l2Slot[id] = uint32(slot) ^ 1
	bank := sys.banks[sys.bankOf(line)].cache
	before := bank.Stats()
	defer func() {
		v, ok := recover().(*check.Violation)
		if !ok || v.Invariant != "sim/l1-slot" {
			t.Fatalf("a write hit over a stale link: recovered %v, want a sim/l1-slot violation", v)
		}
		if bank.Stats() != before {
			t.Fatalf("the L2 bank was charged before the violation: %+v, was %+v", bank.Stats(), before)
		}
	}()
	sys.step(c, trace.Access{Addr: line << sys.lineBits, Write: true})
}

// emptySlot0 empties slot 0 of bank 0 the way the protocol would: an
// invalidation, which clears the slot's directory state with it.
func emptySlot0(t *testing.T, s *System) {
	cc := s.banks[0].cache
	line, ok := cc.LineAt(0)
	if present, _ := cc.Invalidate(line << s.lineBits); !ok || !present {
		t.Fatal("bank 0's slot 0 is empty after a run")
	}
}

// dirEntry returns the directory and L2 slot of a line some L1 holds, found
// by a counter-neutral probe of its bank.
func dirEntry(t *testing.T, s *System, line uint64) (*bankDir, repl.BlockID) {
	t.Helper()
	b := s.bankOf(line)
	id, ok := s.banks[b].cache.Locate(s.bankAddr(line))
	if !ok {
		t.Fatalf("line %#x is not in L2 bank %d", line, b)
	}
	return &s.dirs[b], id
}

// residentL1Slot returns a slot of core cid's L1 that holds a line.
func residentL1Slot(t *testing.T, s *System, cid int) repl.BlockID {
	l1 := s.cores[cid].l1
	for id := repl.BlockID(0); int(id) < l1.Array().Blocks(); id++ {
		if _, ok := l1.LineAt(id); ok {
			return id
		}
	}
	t.Fatalf("core %d's L1 is empty", cid)
	return 0
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
