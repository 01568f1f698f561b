package sim

import (
	"fmt"
	"math/bits"

	"zcache/internal/cache"
	"zcache/internal/check"
	"zcache/internal/energy"
	"zcache/internal/failpoint"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

// bankDir is one L2 bank's MESI directory (Table I: "MESI directory
// coherence"). Inclusion gives every line it tracks a slot in the bank, so
// the bank's tag array is its index: slot id's line has the core bitmask
// sharersAt(id), and its owned bit says the line is modified (MESI M) in the
// L1 of the mask's single core. The masks are packed into fields
// 2^⌈log₂ Cores⌉ bits wide, which tile a word. As the bank's
// cache.SlotObserver it moves a slot's state with its line along a zcache
// relocation chain and clears it when the line leaves the bank.
type bankDir struct {
	s    *System
	bank int
	// sharers holds slot id's mask in bits [id<<shift, (id+1)<<shift).
	sharers []uint64
	shift   uint
	field   uint64 // a field's mask: its low 1<<shift bits set
	owned   []uint64
}

// newBankDir returns the directory of bank, which has slots slots.
func newBankDir(s *System, bank, slots int) bankDir {
	shift := uint(bits.Len(uint(s.cfg.Cores - 1)))
	width := 1 << shift
	return bankDir{
		s:       s,
		bank:    bank,
		sharers: make([]uint64, (slots*width+63)/64),
		shift:   shift,
		field:   ^uint64(0) >> (64 - width),
		owned:   make([]uint64, (slots+63)/64),
	}
}

// sharersAt returns slot id's sharer mask.
func (d *bankDir) sharersAt(id repl.BlockID) uint64 {
	bit := uint(id) << d.shift
	return d.sharers[bit/64] >> (bit % 64) & d.field
}

// setSharers sets slot id's sharer mask, which must fit its field.
func (d *bankDir) setSharers(id repl.BlockID, mask uint64) {
	bit := uint(id) << d.shift
	w := &d.sharers[bit/64]
	*w = *w&^(d.field<<(bit%64)) | mask<<(bit%64)
}

// ownedAt reports slot id's owned bit.
func (d *bankDir) ownedAt(id repl.BlockID) bool { return d.owned[id/64]&(1<<(id%64)) != 0 }

// owner returns the core holding slot id's line in M state, or -1. An owned
// bit on a mask that names no core yields 64, which CheckInvariants reports.
func (d *bankDir) owner(id repl.BlockID) int {
	if !d.ownedAt(id) {
		return -1
	}
	return bits.TrailingZeros64(d.sharersAt(id))
}

// setOwned sets or clears slot id's owned bit.
func (d *bankDir) setOwned(id repl.BlockID, m bool) {
	w, bit := &d.owned[id/64], uint64(1)<<(id%64)
	if m {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// SlotEvicted is the L2 victim handling: back-invalidate every L1 copy
// (inclusive hierarchy), write dirty data to memory, and empty the slot.
// A dirty L1 copy leaves with the line in the same writeback.
func (d *bankDir) SlotEvicted(id repl.BlockID, bankLine uint64, l2dirty bool) {
	s := d.s
	line := s.fullLine(d.bank, bankLine)
	l1dirty := s.invalidateL1s(line, d.sharersAt(id))
	d.setSharers(id, 0)
	d.setOwned(id, false)
	if l1dirty || l2dirty {
		s.counts.Writebacks++
		s.memAccess(line, false)
	}
}

// SlotMoved slides a relocated line's state into its new slot.
func (d *bankDir) SlotMoved(from, to repl.BlockID) {
	d.setSharers(to, d.sharersAt(from))
	d.setSharers(from, 0)
	d.setOwned(to, d.ownedAt(from))
	d.setOwned(from, false)
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
	// dirs holds each bank's directory, indexed by the bank's slots.
	dirs []bankDir
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
		dirs:    make([]bankDir, cfg.L2Banks),
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
		s.dirs[b] = newBankDir(s, b, cc.Array().Blocks())
		cc.SetSlotObserver(&s.dirs[b])
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
		// Check the warm state at the phase boundary.
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
// breach, or nil. Checked per L2 slot: an empty slot carries no directory
// state; a resident line's state is MESI-legal (the mask names only existing
// cores, an owned line has exactly one sharer) and agrees with the L1s
// (every named sharer holds the line). Checked per L1 line: inclusion — the
// line is resident in its L2 bank and the directory names the core a sharer
// — and a dirty copy belongs to the line's owner, so at most one L1 holds a
// line dirty.
// Directory state cannot sit in another bank's directory or outlive its
// line: it is stored at its line's slot. Every probe is counter-neutral
// (cache.LineAt, cache.Locate, cache.DirtyAt), yet Run checks only at phase
// boundaries, where no access is in flight.
func (s *System) CheckInvariants() error {
	coreMask := uint64(1)<<uint(s.cfg.Cores) - 1
	for b := range s.dirs {
		cc := s.banks[b].cache
		d := &s.dirs[b]
		for id := repl.BlockID(0); int(id) < cc.Array().Blocks(); id++ {
			sharers, owned := d.sharersAt(id), d.ownedAt(id)
			bankLine, resident := cc.LineAt(id)
			if !resident {
				if sharers != 0 || owned {
					return check.Violationf("sim/dir-empty-slot",
						"empty slot %d of L2 bank %d has sharers %#x (owned %t)", id, b, sharers, owned)
				}
				continue
			}
			line := s.fullLine(b, bankLine)
			switch {
			case sharers&^coreMask != 0:
				return check.Violationf("sim/mesi-sharers",
					"line %#x sharer mask %#x names cores beyond %d", line, sharers, s.cfg.Cores)
			case owned && bits.OnesCount64(sharers) != 1:
				return check.Violationf("sim/mesi-owner",
					"line %#x is owned but its sharer mask is %#x (M state must name exactly one core)",
					line, sharers)
			}
			for cid := range s.cores {
				if sharers&(1<<uint(cid)) == 0 {
					continue
				}
				if _, ok := s.cores[cid].l1.Locate(line << s.lineBits); !ok {
					return check.Violationf("sim/dir-l1",
						"directory names core %d a sharer of line %#x but its L1 does not hold it",
						cid, line)
				}
			}
		}
	}
	for cid, c := range s.cores {
		for id := 0; id < c.l1.Array().Blocks(); id++ {
			line, ok := c.l1.LineAt(repl.BlockID(id))
			if !ok {
				continue
			}
			b := s.bankOf(line)
			d := &s.dirs[b]
			slot, ok := s.banks[b].cache.Locate(s.bankAddr(line))
			switch {
			case !ok:
				return check.Violationf("sim/inclusion",
					"core %d's L1 holds line %#x but L2 bank %d does not", cid, line, b)
			case d.sharersAt(slot)&(1<<uint(cid)) == 0:
				return check.Violationf("sim/inclusion",
					"core %d's L1 holds line %#x but the directory does not name it a sharer", cid, line)
			case c.l1.DirtyAt(repl.BlockID(id)) && d.owner(slot) != cid:
				return check.Violationf("sim/mesi-dirty",
					"core %d's L1 holds line %#x dirty but the directory names owner %d",
					cid, line, d.owner(slot))
			}
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
// copies are invalidated and c becomes owner (MESI S/E→M). A line c already
// owns has no other copies, so nothing changes.
func (s *System) writeUpgrade(coreID int, line uint64) {
	if d, id := s.entry(line); s.makeOwner(d, id, line, coreID) {
		s.stall += uint64(s.cfg.L1ToL2) // upgrade round trip
	}
}

// makeOwner gives coreID the line in slot id of d exclusively (MESI M):
// every other copy is invalidated, a dirty one folding into the L2 (one bank
// write access), and the slot names coreID the only sharer and owns the
// line. It reports whether any other copy existed.
func (s *System) makeOwner(d *bankDir, id repl.BlockID, line uint64, coreID int) bool {
	others := d.sharersAt(id) &^ (1 << uint(coreID))
	if others != 0 && s.invalidateL1s(line, others) {
		s.writebackToL2(line)
	}
	d.setSharers(id, 1<<uint(coreID))
	d.setOwned(id, true)
	return others != 0
}

// invalidateL1s removes the line from the L1 of every core in mask and
// reports whether a copy was dirty. At most one was: only the line's owner
// holds it dirty (sim/mesi-dirty), so the caller routes one copy, to memory
// or to the L2.
func (s *System) invalidateL1s(line uint64, mask uint64) (dirty bool) {
	addr := line << s.lineBits
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
	return dirty
}

// entry returns the directory and slot of a line some L1 holds. The slot
// probe advances no counter.
func (s *System) entry(line uint64) (*bankDir, repl.BlockID) {
	b := s.bankOf(line)
	id, ok := s.banks[b].cache.Locate(s.bankAddr(line))
	if !ok {
		panic(notIncluded(line))
	}
	return &s.dirs[b], id
}

// writebackToL2 folds an L1 dirty line into its L2 bank (off the critical
// path; counted for bandwidth and energy) and returns the line's directory
// and slot.
func (s *System) writebackToL2(line uint64) (*bankDir, repl.BlockID) {
	b := s.bankOf(line)
	s.counts.L2Accesses++
	s.counts.Writebacks++
	id, hit := s.banks[b].cache.AccessSlot(s.bankAddr(line), true)
	if !hit {
		panic(notIncluded(line))
	}
	s.counts.L2Hits++
	return &s.dirs[b], id
}

// notIncluded is the violation of an L1 line the L2 does not hold. The
// hierarchy is inclusive — an L2 eviction back-invalidates every L1 copy — so
// a write hit, an L1 eviction or a writeback always finds its line in the L2.
func notIncluded(line uint64) *check.Violation {
	return check.Violationf("sim/inclusion", "an L1 holds line %#x but the L2 does not", line)
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

	id, hit := bank.cache.AccessSlot(s.bankAddr(line), false)
	if hit {
		s.counts.L2Hits++
	} else {
		s.counts.L2Misses++
		s.stall += s.memAccess(line, true)
	}
	// The line's directory state is its slot's. It stays put below: the
	// forward and the invalidations write back into the L2 only lines it
	// holds, which hit and move nothing.
	d := &s.dirs[b]

	// A dirty copy in another L1 must fold into the L2 (the directory
	// forwards the request; we charge one extra hop). An owned line is
	// L2-resident, so the demand access above hit; two hits leave the same
	// counts, policy state, dirty bit and stall in either order, so the
	// forward follows the access that found the slot.
	if o := d.owner(id); o >= 0 && o != coreID {
		if s.invalidateL1s(line, 1<<uint(o)) {
			s.writebackToL2(line)
		}
		s.stall += uint64(s.cfg.L1ToL2)
		d.setSharers(id, d.sharersAt(id)&^(1<<uint(o)))
		d.setOwned(id, false)
	}

	// Directory: record the requester.
	if write {
		s.makeOwner(d, id, line, coreID)
	} else {
		d.setSharers(id, d.sharersAt(id)|1<<uint(coreID))
	}
}

// l1Evicted is the L1 victim callback: maintain the directory, fold dirty
// victims into the L2.
func (s *System) l1Evicted(coreID int, addr uint64, dirty bool) {
	line := addr >> s.lineBits
	// A dirty victim's writeback finds the slot; a clean one needs the
	// slot probe. Either way the directory update follows the L2 access,
	// which hits and moves no line.
	var d *bankDir
	var id repl.BlockID
	if dirty {
		d, id = s.writebackToL2(line)
	} else {
		d, id = s.entry(line)
	}
	if d.owner(id) == coreID {
		d.setOwned(id, false)
	}
	d.setSharers(id, d.sharersAt(id)&^(1<<uint(coreID)))
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
