package sim

import (
	"fmt"

	"zcache/internal/energy"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

// L2Ref is one reference in the captured L2-level stream: an L1 demand miss
// or an L1 dirty-victim writeback.
type L2Ref struct {
	// Line is the full line address.
	Line uint64
	// Gap is the instruction count the issuing core retired since its
	// previous L2 reference (including this reference's instruction). A
	// core's gaps sum to at most its PerCoreInstructions entry.
	Gap uint32
	// Core issued the reference.
	Core uint8
	// Write marks stores (demand) — they dirty the L1 fill.
	Write bool
	// Demand distinguishes demand misses from writebacks.
	Demand bool
}

// L2Stream is a captured, design-independent L2 reference stream plus the
// activity totals of the capture phase (needed for energy accounting).
type L2Stream struct {
	Refs []L2Ref
	// Instructions and L1Accesses are whole-run totals.
	Instructions uint64
	L1Accesses   uint64
	// PerCoreInstructions records each core's retired instructions.
	PerCoreInstructions []uint64
}

// CaptureL2Stream runs the cores and their L1s (no L2) and records the
// L1-filtered reference stream. Because the L1s are fixed across all L2
// design points, one capture serves every design — this is the paper's
// trace-driven OPT methodology (§VI-B). Back-invalidation effects on L1
// contents are absent by construction; DESIGN.md records the substitution.
func CaptureL2Stream(cfg Config, gens []trace.Generator) (*L2Stream, error) {
	if err := cfg.validateTraceDriven(); err != nil {
		return nil, err
	}
	if len(gens) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d generators for %d cores", len(gens), cfg.Cores)
	}
	out := &L2Stream{PerCoreInstructions: make([]uint64, cfg.Cores)}
	lineBits := cfg.lineBits()

	cores := make([]*core, cfg.Cores)
	lastRef := make([]uint64, cfg.Cores) // instruction count at last emitted ref
	recording := cfg.WarmupInstructionsPerCore == 0
	for i := range cores {
		l1, err := cfg.l1Spec().NewCache(repl.KindLRU, 0, cfg.lineBits())
		if err != nil {
			return nil, err
		}
		cores[i] = newCore(i, gens[i], l1)
		coreID := i
		l1.OnEviction = func(addr uint64, dirty bool) {
			if dirty && recording {
				out.Refs = append(out.Refs, L2Ref{
					Line:  addr >> lineBits,
					Core:  uint8(coreID),
					Write: true,
				})
			}
		}
	}
	// runPhase advances every core by target instructions; only recorded
	// phases emit refs (warmup mirrors the execution-driven fast-forward).
	runPhase := func(target uint64) {
		h := newCoreHeap(cores, target)
		for c, a, ok := h.due(); ok; c, a, ok = h.due() {
			c.instrs += uint64(a.Gap) + 1
			c.cycles = c.instrs // no stalls in capture: interleave by progress
			if recording {
				out.Instructions += uint64(a.Gap) + 1
				out.L1Accesses++
			}
			if !c.l1.Access(a.Addr, a.Write) && recording {
				out.Refs = append(out.Refs, L2Ref{
					Line:   a.Addr >> lineBits,
					Gap:    uint32(c.instrs - lastRef[c.id]),
					Core:   uint8(c.id),
					Write:  a.Write,
					Demand: true,
				})
				lastRef[c.id] = c.instrs
			}
		}
	}
	if cfg.WarmupInstructionsPerCore > 0 {
		runPhase(cfg.WarmupInstructionsPerCore)
		for i, c := range cores {
			lastRef[i] = c.instrs
		}
		recording = true
	}
	base := make([]uint64, len(cores))
	for i, c := range cores {
		base[i] = c.instrs
	}
	runPhase(cfg.InstructionsPerCore)
	for i, c := range cores {
		out.PerCoreInstructions[i] = c.instrs - base[i]
	}
	return out, nil
}

// ReplayL2 replays a captured stream through the configured L2 design and
// policy (any policy, including OPT) and returns the run's metrics. The
// replay is trace-driven: the stream's order is fixed, coherence upgrades
// are not re-simulated, and stalls are charged per reference.
func ReplayL2(cfg Config, stream *L2Stream) (Metrics, error) {
	if err := cfg.validateTraceDriven(); err != nil {
		return Metrics{}, err
	}
	if stream == nil {
		return Metrics{}, fmt.Errorf("sim: nil L2 stream")
	}
	if len(stream.Refs) == 0 {
		// A workload whose working set the L1s fully absorb (the
		// paper's blackscholes class) produces no L2 references in the
		// measured phase: every core runs at IPC=1 and the L2 design
		// is irrelevant, which is itself a Fig. 4/5 data point.
		if stream.Instructions == 0 {
			return Metrics{}, fmt.Errorf("sim: empty L2 stream with no instructions")
		}
		return StreamMetrics(cfg, stream, energy.SystemCounts{}, make([]uint64, cfg.Cores), 0, 0), nil
	}

	x, err := NewL2Replayer(cfg)
	if err != nil {
		return Metrics{}, err
	}
	// Next-use annotation over the fixed global stream feeds OPT; no
	// other policy reads it, so none pays for it.
	var nextUse []uint64
	if _, future := x.banks[0].cache.Policy().(repl.FutureAware); future {
		lineBits := cfg.lineBits()
		accesses := make([]trace.Access, len(stream.Refs))
		for i, r := range stream.Refs {
			accesses[i] = trace.Access{Addr: r.Line << lineBits, Write: r.Write}
		}
		if nextUse, err = trace.AnnotateNextUse(accesses, cfg.LineBytes); err != nil {
			return Metrics{}, err
		}
	}
	for i, r := range stream.Refs {
		next := trace.NoNextUse
		if nextUse != nil {
			next = nextUse[i]
		}
		x.Replay(r, next)
	}
	lc := x.Leg()
	return StreamMetrics(cfg, stream, lc.Counts, lc.CoreStalls, float64(lc.Demand), float64(lc.TagLookups)), nil
}

// StreamMetrics finishes a trace-driven run over stream: the stream supplies
// the instruction totals, counts the L2/DRAM activity, stalls each core's
// stall cycles (a core's cycles are its instructions plus its stalls), and
// demand and tagLookups the bank loads' numerators — fractional when the
// sampled executor extrapolates them from weighted legs. A stream without
// references is the same formula with zero stalls.
func StreamMetrics(cfg Config, stream *L2Stream, counts energy.SystemCounts, stalls []uint64, demand, tagLookups float64) Metrics {
	// Every demand L2 reference is an L1 miss; round the weighted count.
	m := Metrics{Counts: counts, L1Misses: uint64(demand + 0.5)}
	m.Counts.Instructions = stream.Instructions
	m.Counts.L1Accesses = stream.L1Accesses
	m.finish(cfg.Cores, cfg.L2Banks, func(c int) (instrs, cycles uint64) {
		instrs = stream.PerCoreInstructions[c]
		return instrs, instrs + stalls[c]
	}, demand, tagLookups)
	return m
}
