package sim

import (
	"fmt"

	"zcache/internal/cache"
	"zcache/internal/check"
	"zcache/internal/energy"
	"zcache/internal/failpoint"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

// dirEntry is one line's directory state at the inclusive L2 (Table I:
// "MESI directory coherence"). Sharers is a core bitmask; owner is the core
// holding the line modified, or -1.
type dirEntry struct {
	sharers uint64
	owner   int8
}

// coreBatchLen is the per-core generator batch size: 4 KiB of accesses,
// enough to amortize the batch call without displacing the simulated tag
// arrays from the host cache.
const coreBatchLen = 256

// core is one in-order CPU with its private L1.
type core struct {
	id     int
	gen    trace.Generator
	l1     *cache.Cache
	cycles uint64
	instrs uint64
	// warmupInstrs/warmupCycles snapshot the clock at measurement start
	// so metrics cover only the measured phase.
	warmupInstrs uint64
	warmupCycles uint64
	// stop is the instruction count at which the current phase retires
	// the core.
	stop uint64
	// buf holds prefetched accesses (trace.FillBatch); it persists across
	// warmup and measurement phases so the consumed stream is exactly the
	// sequence repeated Next() calls would yield.
	buf    []trace.Access
	bufPos int
	bufLen int
}

// next returns the core's next access, refilling the batch buffer from the
// generator when drained. A zero-length refill is the end of the stream.
func (c *core) next() (trace.Access, bool) {
	if c.bufPos >= c.bufLen {
		c.bufLen = trace.FillBatch(c.gen, c.buf)
		c.bufPos = 0
		if c.bufLen == 0 {
			return trace.Access{}, false
		}
	}
	a := c.buf[c.bufPos]
	c.bufPos++
	return a, true
}

// coreHeap is a binary min-heap over cores ordered by (cycles, id). The
// order is total — no two cores compare equal — so the sequence of root
// extractions is unique and the simulation's interleaving is deterministic
// regardless of heap internals. The concrete sift-down replaces
// container/heap, whose interface methods cost a dynamic dispatch per
// comparison on the scheduler's hottest loop.
type coreHeap []*core

func (h coreHeap) less(i, j int) bool {
	if h[i].cycles != h[j].cycles {
		return h[i].cycles < h[j].cycles
	}
	return h[i].id < h[j].id
}

// down restores the heap property below i.
func (h coreHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// newCoreHeap schedules every core for a phase of target more instructions.
func newCoreHeap(cores []*core, target uint64) coreHeap {
	h := make(coreHeap, len(cores))
	for i, c := range cores {
		c.stop = c.instrs + target
		h[i] = c
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// due returns the core whose access is next in (cycles, id) order, and that
// access; ok is false once every core has reached its stop or drained its
// generator. The caller advances the returned core's clock and calls due
// again, which first sinks the root to its new place. A core's stop is
// checked after drawing the access, so a phase boundary consumes one access
// per core — part of the pinned interleaving.
func (h *coreHeap) due() (c *core, a trace.Access, ok bool) {
	h.down(0)
	for len(*h) > 0 {
		c = (*h)[0]
		if a, ok = c.next(); ok && c.instrs < c.stop {
			return c, a, true
		}
		h.pop()
	}
	return nil, trace.Access{}, false
}

// RecordTape returns the exact prefix of gen's stream that one core of a
// System under cfg consumes. The rule is due's: per phase, warm-up (if any)
// then measured, the core draws accesses while its retired instructions are
// below the phase's stop, then draws one more and discards it; a stream that
// ends first ends the tape. A trace.Replay of the tape therefore drives the
// core exactly as gen would, and holds nothing the core never reads.
func RecordTape(cfg Config, gen trace.Generator) []trace.Access {
	c := &core{gen: gen, buf: make([]trace.Access, coreBatchLen)}
	phases := []uint64{cfg.InstructionsPerCore}
	if cfg.WarmupInstructionsPerCore > 0 {
		phases = []uint64{cfg.WarmupInstructionsPerCore, cfg.InstructionsPerCore}
	}
	var tape []trace.Access
	for _, target := range phases {
		for stop := c.instrs + target; ; {
			a, ok := c.next()
			if !ok {
				break
			}
			tape = append(tape, a)
			if c.instrs >= stop {
				break
			}
			c.instrs += uint64(a.Gap) + 1
		}
	}
	return tape
}

// pop removes the root.
func (h *coreHeap) pop() {
	old := *h
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	(*h).down(0)
}

// Metrics is the outcome of a run: activity counts for the energy model
// plus the bandwidth figures of §VI-D.
type Metrics struct {
	Counts energy.SystemCounts
	// PerCoreIPC holds each core's instructions/cycles.
	PerCoreIPC []float64
	// BankDemandLoad and BankTagLoad are the §VI-D figures: average
	// demand accesses/cycle/bank and total tag accesses (demand + walk)
	// /cycle/bank.
	BankDemandLoad float64
	BankTagLoad    float64
	// Invalidations counts coherence invalidation messages to L1s.
	Invalidations uint64
	// L1Misses counts demand L1 misses (== demand L2 accesses).
	L1Misses uint64
}

// System is the execution-driven CMP model: the banked L2 driven by in-order
// cores through private L1s, with what only a global clock can model on top
// — the directories, the bank tag ports and the memory controllers' queues.
type System struct {
	l2
	bankLat int
	cores   []*core
	// dirs holds each bank's directory, keyed by full line address.
	dirs []*dirTable
	// ports models each bank's pipelined tag port: one demand access
	// occupies one issue slot; a request arriving while the port is backed
	// up queues. Walk traffic deliberately does not occupy the port —
	// §VI-D's point is that walks use spare bandwidth and yield to demand
	// accesses.
	ports []queue
	mcus  []queue

	counts        energy.SystemCounts
	invalidations uint64
	l1Misses      uint64
	// now approximates global time while handling one access: the
	// issuing core's cycle plus stall accumulated so far.
	now uint64
	// stall accumulates the current access's critical-path delay.
	stall uint64
}

// NewSystem builds the CMP. gens supplies one generator per core (length
// must equal cfg.Cores); each core owns its generator.
func NewSystem(cfg Config, gens []trace.Generator) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(gens) != cfg.Cores {
		return nil, fmt.Errorf("sim: %d generators for %d cores", len(gens), cfg.Cores)
	}
	banked, err := newL2(cfg)
	if err != nil {
		return nil, err
	}
	s := &System{
		l2:      banked,
		bankLat: energy.NewModel().HitLatency(cfg.L2Spec()),
		dirs:    make([]*dirTable, cfg.L2Banks),
		ports:   make([]queue, cfg.L2Banks),
		mcus:    make([]queue, cfg.MemControllers),
	}
	for i := 0; i < cfg.Cores; i++ {
		l1, err := cfg.l1Spec().NewCache(repl.KindLRU, 0, cfg.lineBits())
		if err != nil {
			return nil, err
		}
		if cfg.Check {
			l1.EnableChecks(true)
		}
		c := &core{id: i, gen: gens[i], l1: l1, buf: make([]trace.Access, coreBatchLen)}
		// L1 victim handling: update the directory and write dirty
		// victims back to the L2 (inclusive hierarchy).
		coreID := i
		l1.OnEviction = func(addr uint64, dirty bool) { s.l1Evicted(coreID, addr, dirty) }
		s.cores = append(s.cores, c)
	}
	for b := range s.banks {
		cc := s.banks[b].cache
		s.dirs[b] = newDirTable(cc.Array().Blocks())
		bankIdx := b
		cc.OnEviction = func(addr uint64, dirty bool) { s.l2Evicted(bankIdx, addr, dirty) }
	}
	return s, nil
}

// Run executes the workload until every core retires
// cfg.InstructionsPerCore instructions (or its generator ends) and returns
// the metrics. If configured, a warmup phase runs first and is excluded
// from every counter (the paper's fast-forward methodology, §V).
func (s *System) Run() (Metrics, error) {
	if err := failpoint.Inject("sim/run"); err != nil {
		return Metrics{}, err
	}
	if s.cfg.WarmupInstructionsPerCore > 0 {
		s.phase(s.cfg.WarmupInstructionsPerCore)
		// Check at the phase boundary, before the counter reset absorbs
		// the probes the checker issues (Contains touches counters).
		if s.cfg.Check {
			if err := s.CheckInvariants(); err != nil {
				return Metrics{}, err
			}
		}
		s.resetCounters()
	}
	s.phase(s.cfg.InstructionsPerCore)
	m := s.metrics()
	if s.cfg.Check {
		if err := s.CheckInvariants(); err != nil {
			return Metrics{}, err
		}
	}
	return m, nil
}

// CheckInvariants verifies the cross-layer coherence invariants the
// protocol relies on and returns a *check.Violation describing the first
// breach, or nil. Checked per directory entry: MESI legality (owner
// implies an exclusive sharer mask; the mask never names nonexistent
// cores), directory→L1 agreement (every named sharer actually holds the
// line), inclusion (the entry's line is resident in its L2 bank), and
// bank routing (the line belongs to the bank whose directory holds it).
// The probes perturb array Counters, so call this only at phase
// boundaries — Run does, when Config.Check is set.
func (s *System) CheckInvariants() error {
	coreMask := uint64(1)<<uint(s.cfg.Cores) - 1
	for b, dir := range s.dirs {
		var v *check.Violation
		dir.forEach(func(line uint64, e *dirEntry) {
			if v != nil {
				return
			}
			switch {
			case s.bankOf(line) != b:
				v = check.Violationf("sim/dir-bank",
					"line %#x routed to bank %d but held by bank %d's directory",
					line, s.bankOf(line), b)
			case e.sharers&^coreMask != 0:
				v = check.Violationf("sim/mesi-sharers",
					"line %#x sharer mask %#x names cores beyond %d", line, e.sharers, s.cfg.Cores)
			case int(e.owner) >= s.cfg.Cores:
				v = check.Violationf("sim/mesi-owner",
					"line %#x owned by nonexistent core %d", line, e.owner)
			case e.owner >= 0 && e.sharers != 1<<uint(e.owner):
				v = check.Violationf("sim/mesi-owner",
					"line %#x owned by core %d but sharer mask is %#x (M state must be exclusive)",
					line, e.owner, e.sharers)
			case !s.banks[b].cache.Contains(s.bankAddr(line)):
				v = check.Violationf("sim/inclusion",
					"directory entry for line %#x but the line is not resident in L2 bank %d", line, b)
			default:
				addr := line << s.lineBits
				for mask, cid := e.sharers, 0; mask != 0; cid++ {
					if mask&(1<<uint(cid)) == 0 {
						continue
					}
					mask &^= 1 << uint(cid)
					if !s.cores[cid].l1.Contains(addr) {
						v = check.Violationf("sim/dir-l1",
							"directory names core %d a sharer of line %#x but its L1 does not hold it",
							cid, line)
						return
					}
				}
			}
		})
		if v != nil {
			return v
		}
	}
	return nil
}

// phase advances every core by target additional instructions.
func (s *System) phase(target uint64) {
	h := newCoreHeap(s.cores, target)
	for c, a, ok := h.due(); ok; c, a, ok = h.due() {
		s.step(c, a)
	}
}

// resetCounters zeroes everything measurement-visible while keeping cache,
// directory, and policy state warm. Core clocks keep advancing (timing
// state like bank and MCU queues must stay causally consistent), so the
// measured phase subtracts the warmup baseline.
func (s *System) resetCounters() {
	s.counts = energy.SystemCounts{}
	s.invalidations = 0
	s.l1Misses = 0
	for _, c := range s.cores {
		c.warmupInstrs = c.instrs
		c.warmupCycles = c.cycles
	}
	s.resetBankCounters()
}

// step retires one access (and its non-memory gap) on core c.
func (s *System) step(c *core, a trace.Access) {
	c.instrs += uint64(a.Gap) + 1
	c.cycles += uint64(a.Gap) + 1
	s.counts.Instructions += uint64(a.Gap) + 1
	s.counts.L1Accesses++

	line := a.Addr >> s.lineBits
	s.now = c.cycles
	s.stall = 0
	if c.l1.Access(a.Addr, a.Write) {
		if a.Write {
			s.writeUpgrade(c.id, line)
		}
	} else {
		s.l1Misses++
		s.l2Fetch(c.id, line, a.Write)
	}
	c.cycles += s.stall
}

// writeUpgrade handles a store hitting an L1 line that may be shared: other
// copies are invalidated and c becomes owner (MESI S/E→M).
func (s *System) writeUpgrade(coreID int, line uint64) {
	e := s.dirs[s.bankOf(line)].get(line)
	if e == nil {
		// Inclusivity means the directory must know the line; a miss
		// here is a protocol bug.
		panic(check.Violationf("sim/dir-unknown-line",
			"L1 write hit by core %d on line %#x unknown to the directory", coreID, line))
	}
	if e.owner == int8(coreID) {
		return // already M
	}
	others := e.sharers &^ (1 << uint(coreID))
	if others != 0 {
		s.invalidateSharers(line, others)
		s.stall += uint64(s.cfg.L1ToL2) // upgrade round trip
	}
	e.sharers = 1 << uint(coreID)
	e.owner = int8(coreID)
}

// invalidateSharers removes the line from the given cores' L1s. Dirty
// copies fold into the L2 (one bank write access).
func (s *System) invalidateSharers(line uint64, mask uint64) {
	addr := line << s.lineBits
	for cid := 0; mask != 0; cid++ {
		if mask&(1<<uint(cid)) == 0 {
			continue
		}
		mask &^= 1 << uint(cid)
		present, dirty := s.cores[cid].l1.Invalidate(addr)
		s.invalidations++
		if present && dirty {
			s.writebackToL2(line)
		}
	}
}

// writebackToL2 folds an L1 dirty line into its L2 bank (off the critical
// path; counted for bandwidth and energy).
func (s *System) writebackToL2(line uint64) {
	bank := &s.banks[s.bankOf(line)]
	s.counts.L2Accesses++
	s.counts.Writebacks++
	// Inclusive L2 holds the line, so this is a write hit. (If a racing
	// eviction removed it, Access write-allocates it back, which is the
	// conventional fallback.)
	if bank.cache.Access(s.bankAddr(line), true) {
		s.counts.L2Hits++
	} else {
		s.counts.L2Misses++
		s.memAccess(line, false)
		s.registerFill(line)
	}
}

// l2Fetch services an L1 demand miss from the shared L2.
func (s *System) l2Fetch(coreID int, line uint64, write bool) {
	b := s.bankOf(line)
	bank := &s.banks[b]
	bank.demand++
	s.counts.L2Accesses++
	s.stall += uint64(s.cfg.L1ToL2)
	s.stall += s.ports[b].wait(s.now+s.stall, 1)
	s.stall += uint64(s.bankLat)

	// Single directory probe for the whole fetch. The entry pointer stays
	// valid across the nested cache accesses below: an entry is only
	// released when its line is evicted from the L2, and the line being
	// fetched missed, so it cannot be anyone's victim.
	e := s.dirs[b].get(line)

	// A dirty copy in another L1 must fold into the L2 first (the
	// directory forwards the request; we charge one extra hop).
	if e != nil && e.owner >= 0 && int(e.owner) != coreID {
		owner := int(e.owner)
		addr := line << s.lineBits
		present, dirty := s.cores[owner].l1.Invalidate(addr)
		s.invalidations++
		if present && dirty {
			s.writebackToL2(line)
		}
		s.stall += uint64(s.cfg.L1ToL2)
		e.owner = -1
		e.sharers &^= 1 << uint(owner)
	}

	if bank.cache.Access(s.bankAddr(line), false) {
		s.counts.L2Hits++
	} else {
		s.counts.L2Misses++
		s.stall += s.memAccess(line, true)
		e = s.registerFill(line)
	}

	// Directory: record the requester. A hit implies the entry existed
	// (inclusive hierarchy); a miss just registered it.
	if e == nil {
		e = s.registerFill(line)
	}
	if write {
		others := e.sharers &^ (1 << uint(coreID))
		if others != 0 {
			s.invalidateSharers(line, others)
		}
		e.sharers = 1 << uint(coreID)
		e.owner = int8(coreID)
	} else {
		e.sharers |= 1 << uint(coreID)
	}
}

// registerFill returns the directory entry for a line just installed in the
// L2, creating it if needed (sharers fill in as requests arrive).
func (s *System) registerFill(line uint64) *dirEntry {
	return s.dirs[s.bankOf(line)].getOrCreate(line)
}

// l1Evicted is the L1 victim callback: maintain the directory, fold dirty
// victims into the L2.
func (s *System) l1Evicted(coreID int, addr uint64, dirty bool) {
	line := addr >> s.lineBits
	if e := s.dirs[s.bankOf(line)].get(line); e != nil {
		e.sharers &^= 1 << uint(coreID)
		if e.owner == int8(coreID) {
			e.owner = -1
		}
	}
	if dirty {
		s.writebackToL2(line)
	}
}

// l2Evicted is the L2 victim callback: back-invalidate every L1 copy
// (inclusive hierarchy) and write dirty data to memory.
func (s *System) l2Evicted(bankIdx int, bankByteAddr uint64, l2dirty bool) {
	line := s.fullLine(bankIdx, bankByteAddr)
	dir := s.dirs[bankIdx]
	dirty := l2dirty
	if e := dir.get(line); e != nil {
		addr := line << s.lineBits
		mask := e.sharers
		for cid := 0; mask != 0; cid++ {
			if mask&(1<<uint(cid)) == 0 {
				continue
			}
			mask &^= 1 << uint(cid)
			present, d := s.cores[cid].l1.Invalidate(addr)
			s.invalidations++
			if present && d {
				dirty = true
			}
		}
		dir.del(line)
	}
	if dirty {
		s.counts.Writebacks++
		s.memAccess(line, false)
	}
}

// memAccess models one DRAM access through the line's memory controller:
// its queue plus zero-load latency. critical accesses return the stall;
// writebacks only consume bandwidth.
func (s *System) memAccess(line uint64, critical bool) uint64 {
	s.counts.DRAMAccesses++
	wait := s.mcus[s.mcuOf(line)].wait(s.now+s.stall, s.mcuOccup)
	if !critical {
		return 0
	}
	return wait + uint64(s.cfg.MemLatency)
}

// metrics finalizes counters into a Metrics.
func (s *System) metrics() Metrics {
	demand, tagLookups := s.fold(&s.counts)
	m := Metrics{Counts: s.counts, Invalidations: s.invalidations, L1Misses: s.l1Misses}
	m.finish(len(s.cores), s.cfg.L2Banks, func(i int) (instrs, cycles uint64) {
		c := s.cores[i]
		return c.instrs - c.warmupInstrs, c.cycles - c.warmupCycles
	}, float64(demand), float64(tagLookups))
	return m
}

// finish derives what every driver computes alike from each core's measured
// instructions and cycles: PerCoreIPC, Counts.Cycles (the slowest core's)
// and the two bank loads over it, from their numerators demand and
// tagLookups. A core with no measured cycles retired nothing: its IPC is 0
// (DESIGN §5).
func (m *Metrics) finish(cores, banks int, core func(i int) (instrs, cycles uint64), demand, tagLookups float64) {
	var maxCycles uint64
	for i := 0; i < cores; i++ {
		instrs, cycles := core(i)
		maxCycles = max(maxCycles, cycles)
		ipc := 0.0
		if cycles > 0 {
			ipc = float64(instrs) / float64(cycles)
		}
		m.PerCoreIPC = append(m.PerCoreIPC, ipc)
	}
	m.Counts.Cycles = maxCycles
	if maxCycles > 0 {
		denom := float64(maxCycles) * float64(banks)
		m.BankDemandLoad = demand / denom
		m.BankTagLoad = tagLookups / denom
	}
}
