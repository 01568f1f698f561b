package sim

import (
	"zcache/internal/cache"
	"zcache/internal/energy"
)

// l2 is the banked shared L2 of Table I — the one model every driver in this
// package runs. It owns what the drivers must agree on for Fig. 4a (trace-
// driven) to be read against Fig. 4b (execution-driven): how a bank is built
// and seeded, which bank and which memory controller a line belongs to, the
// DRAM queue arithmetic, what a counter reset clears, and how the arrays' tag
// counters become the energy model's walk costs. What a driver charges on
// top of that is the driver's:
//
//	charge                   System.Run     L2Replayer / ReplayL2 / sampled legs
//	L1→L2 hop (L1ToL2)       every demand   every demand
//	bank hit latency         every demand   every demand, once per timing variant
//	bank tag-port queue      yes            no (no global clock to queue against)
//	MCU queue + MemLatency   demand misses  demand misses, per timing variant
//	MCU bandwidth, writeback yes            no (counted as DRAM accesses only)
//	coherence (MESI, hops)   yes            no (the stream's order is fixed)
//
// The two "no" rows on bandwidth are known modelling differences of the
// trace-driven drivers, recorded here rather than hidden: they make replayed
// IPC slightly optimistic under heavy write traffic, never change which
// accesses hit, and DESIGN.md §5 carries the same table.
type l2 struct {
	cfg      Config
	banks    []bank
	bankMask uint64
	bankBits uint
	lineBits uint
	mcuMask  uint64
	// mcuOccup is the cycles one line transfer occupies a memory
	// controller: the total bandwidth is split evenly across controllers.
	mcuOccup uint64
}

// bank is one NUCA bank: the cache controller over its array and policy,
// plus the demand-lookup count behind §VI-D's "core accesses" load.
type bank struct {
	cache  *cache.Cache
	demand uint64
}

// queue is a single-server resource's next free cycle. A memory controller
// is one (a line transfer holds it mcuOccup cycles); so is a bank's
// pipelined tag port (one issue slot per demand access).
type queue uint64

// wait enqueues a request arriving at now that holds the resource for occup
// cycles, and returns how long it waits to start.
func (q *queue) wait(now, occup uint64) uint64 {
	start := now
	if uint64(*q) > start {
		start = uint64(*q)
	}
	*q = queue(start + occup)
	return start - now
}

// newL2 builds the configured banks. Each bank gets its own hash seed and
// policy seed (banks are physically separate arrays). The caller has
// validated cfg and attaches its own victim handling to each bank.
func newL2(cfg Config) (l2, error) {
	l := l2{
		cfg:      cfg,
		banks:    make([]bank, cfg.L2Banks),
		bankMask: uint64(cfg.L2Banks) - 1,
		lineBits: cfg.lineBits(),
		mcuMask:  uint64(cfg.MemControllers) - 1,
	}
	for b := cfg.L2Banks; b > 1; b >>= 1 {
		l.bankBits++
	}
	perMCU := cfg.MemBytesPerCycle / float64(cfg.MemControllers)
	l.mcuOccup = uint64(float64(cfg.LineBytes)/perMCU + 0.5)
	if l.mcuOccup == 0 {
		l.mcuOccup = 1
	}
	for b := range l.banks {
		cc, err := cfg.BankSpec(b).NewCache(cfg.L2Policy, cfg.Seed^uint64(b), l.lineBits)
		if err != nil {
			return l2{}, err
		}
		if cfg.Check {
			cc.EnableChecks(true)
		}
		l.banks[b].cache = cc
	}
	return l, nil
}

// bankOf returns the bank index for a full line address.
func (l *l2) bankOf(line uint64) int { return int(line & l.bankMask) }

// bankAddr converts a full line address into the synthetic byte address a
// bank cache indexes (bank bits stripped so they do not waste index
// entropy).
func (l *l2) bankAddr(line uint64) uint64 { return (line >> l.bankBits) << l.lineBits }

// fullLine reconstructs the full line address from a line of a bank's array
// (bankAddr's address without its line offset).
func (l *l2) fullLine(bank int, bankLine uint64) uint64 {
	return bankLine<<l.bankBits | uint64(bank)
}

// mcuOf returns the memory controller serving a line: controllers interleave
// on the line bits above the bank bits (both counts are powers of two).
func (l *l2) mcuOf(line uint64) int { return int((line >> l.bankBits) & l.mcuMask) }

// resetBankCounters zeroes the banks' demand and tag counters while keeping
// cache contents and policy state warm.
func (l *l2) resetBankCounters() {
	for i := range l.banks {
		l.banks[i].demand = 0
		*l.banks[i].cache.Array().Counters() = cache.Counters{}
	}
}

// fold sums the banks' counters since the last reset: relocations and walk
// tag reads are added into counts, demand lookups and tag lookups (demand +
// walk, the §VI-D bandwidth figure) are returned.
func (l *l2) fold(counts *energy.SystemCounts) (demand, tagLookups uint64) {
	for i := range l.banks {
		demand += l.banks[i].demand
		ctr := l.banks[i].cache.Counters()
		tagLookups += ctr.TagLookups
		counts.L2Relocations += ctr.Relocations
		// The array counts demand lookups at W single reads each, walk
		// steps as individual reads, and one tag read per relocation;
		// recover the walk-only singles for the energy model.
		demandSingles := (ctr.TagLookups - ctr.WalkLookups) * uint64(l.cfg.L2Ways)
		if ctr.TagReads > demandSingles+ctr.Relocations {
			counts.L2WalkTagReads += ctr.TagReads - demandSingles - ctr.Relocations
		}
	}
	return demand, tagLookups
}
