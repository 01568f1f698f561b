package sim

import (
	"zcache/internal/energy"
	"zcache/internal/repl"
)

// timing is one lookup-latency variant's stall accumulators. Cache-state
// evolution in the trace-driven model is lookup-invariant — serial vs
// parallel lookup changes the bank hit latency, never which accesses hit
// — so a replayer can account several lookup variants' timing in one
// walk over the stream.
type timing struct {
	bankLat    int
	mcus       []queue
	coreCycles []uint64
	coreStalls []uint64
}

func newTiming(cfg Config) timing {
	return timing{
		bankLat:    energy.NewModel().HitLatency(cfg.L2Spec()),
		mcus:       make([]queue, cfg.MemControllers),
		coreCycles: make([]uint64, cfg.Cores),
		coreStalls: make([]uint64, cfg.Cores),
	}
}

// L2Replayer is the trace-driven driver of the banked L2: it replays captured
// L2Refs through one design instance, one reference at a time, charging each
// core's stalls against that core's own clock (there is no global one).
// ReplayL2 drives it across a whole stream; the sampled executor
// (internal/sample) drives it across representative interval legs, resetting
// counters metric-neutrally between the warm-up prefix and the measured leg.
// The per-reference path never allocates.
type L2Replayer struct {
	l2
	timings []timing

	counts energy.SystemCounts
}

// NewL2Replayer builds the configured L2 banks. OPT is accepted (the caller
// feeds next-use annotations through Replay). The replayer starts with one
// timing variant, cfg.Lookup; AddLookupTiming registers more.
func NewL2Replayer(cfg Config) (*L2Replayer, error) {
	if err := cfg.validateTraceDriven(); err != nil {
		return nil, err
	}
	banked, err := newL2(cfg)
	if err != nil {
		return nil, err
	}
	x := &L2Replayer{l2: banked, timings: []timing{newTiming(cfg)}}
	evicted := func(_ uint64, dirty bool) {
		if dirty {
			x.counts.Writebacks++
			x.counts.DRAMAccesses++
		}
	}
	for b := range x.banks {
		x.banks[b].cache.OnEviction = evicted
	}
	return x, nil
}

// AddLookupTiming registers another lookup variant whose stall timing is
// accounted alongside the primary one on every replayed reference, and
// returns its variant index (the primary variant, cfg.Lookup, is index
// 0). Call before the first Replay.
func (x *L2Replayer) AddLookupTiming(lk energy.Lookup) int {
	cfg := x.cfg
	cfg.Lookup = lk
	x.timings = append(x.timings, newTiming(cfg))
	return len(x.timings) - 1
}

// Replay drives one reference through its bank, charging a demand
// reference's stalls once per timing variant. nextUse is the reference's
// next-use annotation for future-aware (OPT) policies; other policies
// ignore it.
func (x *L2Replayer) Replay(r L2Ref, nextUse uint64) {
	bank := &x.banks[x.bankOf(r.Line)]
	if fa, ok := bank.cache.Policy().(repl.FutureAware); ok {
		fa.SetNextUse(nextUse)
	}
	x.counts.L2Accesses++
	// A writeback (non-demand) is a write, off the critical path.
	hit := bank.cache.Access(x.bankAddr(r.Line), r.Write || !r.Demand)
	if hit {
		x.counts.L2Hits++
	} else {
		x.counts.L2Misses++
		x.counts.DRAMAccesses++
	}
	if r.Demand {
		bank.demand++
		x.charge(int(r.Core), uint64(r.Gap), r.Line, hit)
	}
}

// charge accounts one demand reference's stall on every timing variant: the
// L1→L2 hop and the variant's bank latency, plus on a miss the line's memory
// controller queue and the DRAM latency. gap is the instructions the core
// retired since its previous reference. (Scalar arguments, not the L2Ref:
// passing the struct costs ~4% on BenchmarkSampledReplayAccess.)
func (x *L2Replayer) charge(core int, gap, line uint64, hit bool) {
	mcu := x.mcuOf(line)
	for t := range x.timings {
		tm := &x.timings[t]
		now := tm.coreCycles[core] + gap
		stall := uint64(x.cfg.L1ToL2 + tm.bankLat)
		if !hit {
			stall += tm.mcus[mcu].wait(now+stall, x.mcuOccup) + uint64(x.cfg.MemLatency)
		}
		tm.coreCycles[core] = now + stall
		tm.coreStalls[core] += stall
	}
}

// Warm advances cache state for one reference without any timing or
// counter bookkeeping. The sampled executor drives warm-up regions
// through it: every counter it would touch is zeroed by the ResetCounters
// call at the next measured leg's start, so skipping the bookkeeping is
// metric-neutral and saves the stall/MCU arithmetic on every warm
// reference.
func (x *L2Replayer) Warm(r L2Ref) {
	x.banks[x.bankOf(r.Line)].cache.Access(x.bankAddr(r.Line), r.Write || !r.Demand)
}

// ResetCounters zeroes everything measurement-visible — activity counts,
// stall accumulators, bank demand and tag counters, MCU queues — while
// keeping cache contents and policy state warm, exactly the warm-up
// contract System.resetCounters implements for execution-driven runs
// (except that a leg's clocks restart at zero, so its MCU queues do too).
func (x *L2Replayer) ResetCounters() {
	x.counts = energy.SystemCounts{}
	for t := range x.timings {
		tm := &x.timings[t]
		clear(tm.coreCycles)
		clear(tm.coreStalls)
		clear(tm.mcus)
	}
	x.resetBankCounters()
}

// LegCounts is the counter snapshot of one replayed leg: L2/DRAM activity
// since the last reset, plus the recovered walk costs and per-core stall
// totals the sampled extrapolation scales by cluster weight.
type LegCounts struct {
	// Counts carries L2Accesses/Hits/Misses, DRAMAccesses, Writebacks,
	// L2Relocations, and L2WalkTagReads. Instruction and cycle totals are
	// the caller's to fill — they are stream properties, not leg ones.
	Counts energy.SystemCounts
	// Demand and TagLookups feed the §VI-D bank-load figures.
	Demand     uint64
	TagLookups uint64
	// CoreStalls is each core's stall cycles accumulated over the leg for
	// the primary timing variant; VariantStalls carries every variant in
	// AddLookupTiming registration order (VariantStalls[0] aliases
	// CoreStalls).
	CoreStalls    []uint64
	VariantStalls [][]uint64
}

// Leg harvests the counters accumulated since the last ResetCounters.
func (x *L2Replayer) Leg() LegCounts {
	lc := LegCounts{Counts: x.counts}
	lc.VariantStalls = make([][]uint64, len(x.timings))
	for t := range x.timings {
		lc.VariantStalls[t] = append([]uint64(nil), x.timings[t].coreStalls...)
	}
	lc.CoreStalls = lc.VariantStalls[0]
	lc.Demand, lc.TagLookups = x.fold(&lc.Counts)
	return lc
}
