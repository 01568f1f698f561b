// Package sim implements the CMP performance model of Table I: in-order
// cores (IPC=1 except on memory accesses), per-core split-modelled L1s, a
// shared, inclusive, banked NUCA L2 with MESI directory coherence, and
// memory controllers with zero-load latency plus peak-bandwidth queueing.
//
// Two drivers are provided:
//
//   - System: execution-driven — every core runs its trace.Generator
//     through its L1 into the shared L2, with back-invalidations,
//     writebacks, and coherence modelled. Used for the LRU studies
//     (Fig. 4b, Fig. 5).
//   - CaptureL2Stream / ReplayL2: trace-driven — the L1-filtered L2
//     reference stream is captured once (it depends only on the fixed L1s),
//     annotated with next-use indices, and replayed through each L2 design.
//     This is the paper's OPT mode (§VI-B: "OPT simulations are run in
//     trace-driven mode").
//
// Timing model: cores advance a local cycle counter — one cycle per
// instruction plus memory stall cycles. A min-heap interleaves cores by
// local time (a "bag of cores" discrete-event loop), which orders accesses
// well enough for the queueing models while staying deterministic.
package sim

import (
	"fmt"

	"zcache/internal/cache"
	"zcache/internal/energy"
	"zcache/internal/repl"
)

// Design selects the L2 array organization (the comparison space of
// Fig. 4/5).
type Design int

const (
	// SetAssocBitSel is a conventional set-associative cache indexed by
	// address bits. The paper drops it from the headline comparison
	// ("caches without hashing perform significantly worse") but the
	// repository keeps it for completeness.
	SetAssocBitSel Design = iota
	// SetAssocH3 is the paper's baseline: set-associative with an H3
	// index hash.
	SetAssocH3
	// SkewAssoc indexes each way with its own H3 function (== a zcache
	// with a 1-level walk; the paper's Z W/W).
	SkewAssoc
	// ZCacheL2 is a zcache with a 2-level walk (Z4/16 at 4 ways).
	ZCacheL2
	// ZCacheL3 is a zcache with a 3-level walk (Z4/52 at 4 ways).
	ZCacheL3
)

// designs are the L2 organizations in Design order: the -design flag's
// spelling and the array, whose geometry and seed BankSpec fills in.
var designs = [...]struct {
	name string
	spec cache.Spec
}{
	{"sa", cache.Spec{Org: cache.OrgSetAssoc}},
	{"sa-h3", cache.Spec{Org: cache.OrgSetAssocHashed}},
	{"skew", cache.Spec{Org: cache.OrgZCache, Levels: 1}},
	{"z-L2", cache.Spec{Org: cache.OrgZCache, Levels: 2}},
	{"z-L3", cache.Spec{Org: cache.OrgZCache, Levels: 3}},
}

// valid reports whether d is one of the five designs.
func (d Design) valid() bool { return d >= 0 && int(d) < len(designs) }

// String names the design as the -design flag spells it.
func (d Design) String() string {
	if d.valid() {
		return designs[d].name
	}
	return fmt.Sprintf("design(%d)", int(d))
}

// ParseDesign resolves a design name, the inverse of String.
func ParseDesign(name string) (Design, error) {
	for d, e := range designs {
		if e.name == name {
			return Design(d), nil
		}
	}
	return 0, fmt.Errorf("unknown design %q", name)
}

// Spec returns the design's organization and walk depth at ways ways; an
// unknown design's organization builds nothing.
func (d Design) Spec(ways int) cache.Spec {
	s := cache.Spec{Org: -1}
	if d.valid() {
		s = designs[d].spec
	}
	s.Ways = ways
	return s
}

// PolicyLRU is full-timestamp LRU under the name bench/simwl.go uses;
// everything else names repl.KindLRU.
const PolicyLRU = repl.KindLRU

// Config describes the simulated CMP. PaperSystem returns Table I.
type Config struct {
	// Cores is the number of in-order cores.
	Cores int
	// L1Bytes / L1Ways / LineBytes: per-core L1 data cache geometry.
	// (Table I's L1s are split I/D; instruction fetch is modelled as
	// always hitting L1I — in-order cores with small loops — so only the
	// D-side is simulated. DESIGN.md records the substitution.) An L1
	// hit costs nothing beyond an IPC=1 core's cycle, so the L1 has no
	// latency.
	L1Bytes   uint64
	L1Ways    int
	LineBytes uint64
	// L2Bytes / L2Ways / L2Banks: shared L2 geometry.
	L2Bytes uint64
	L2Ways  int
	L2Banks int
	// Design / L2Policy / Lookup: the L2 organization under study.
	Design   Design
	L2Policy repl.Kind
	Lookup   energy.Lookup
	// L1ToL2 is the average NUCA network latency to an L2 bank.
	L1ToL2 int
	// MemControllers and MemLatency: MCU count and zero-load latency.
	MemControllers int
	MemLatency     int
	// MemBytesPerCycle is *total* peak memory bandwidth (Table I: 64GB/s
	// at 2GHz = 32 B/cycle), split evenly across controllers.
	MemBytesPerCycle float64
	// InstructionsPerCore ends the run once every core has executed this
	// many instructions (the paper's 256M-instruction methodology,
	// scaled).
	InstructionsPerCore uint64
	// WarmupInstructionsPerCore, if positive, executes this many
	// instructions per core before measurement starts — the scaled
	// analogue of the paper's fast-forward (§V): caches and directory
	// warm up, then counters reset and the measured phase runs.
	WarmupInstructionsPerCore uint64
	// Seed feeds every seeded component (hash functions, policies).
	Seed uint64
	// Check enables the invariant checker: cache candidate trees are
	// validated on every miss, and MESI/directory/inclusion invariants
	// are verified at phase boundaries. Violations surface as
	// *check.Violation errors (or panics on the miss path, which run
	// engines recover). Check does not alter simulated behaviour and is
	// excluded from result fingerprints.
	Check bool
}

// PaperSystem returns the Table I configuration with the given L2 design
// point. InstructionsPerCore defaults to 1M (callers scale it down for
// tests and up for full runs).
func PaperSystem(design Design, policy repl.Kind, lookup energy.Lookup, l2Ways int) Config {
	return Config{
		Cores:               32,
		L1Bytes:             32 << 10,
		L1Ways:              4,
		LineBytes:           64,
		L2Bytes:             8 << 20,
		L2Ways:              l2Ways,
		L2Banks:             8,
		Design:              design,
		L2Policy:            policy,
		Lookup:              lookup,
		L1ToL2:              4,
		MemControllers:      4,
		MemLatency:          200,
		MemBytesPerCycle:    32,
		InstructionsPerCore: 1 << 20,
		Seed:                0xC0FFEE,
	}
}

// L2Spec returns the energy-model spec for the configured L2.
func (c Config) L2Spec() energy.CacheSpec {
	return energy.CacheSpec{
		CapacityBytes: c.L2Bytes,
		LineBytes:     c.LineBytes,
		Banks:         c.L2Banks,
		Ways:          c.L2Ways,
		Lookup:        c.Lookup,
		ZLevels:       c.Design.Spec(c.L2Ways).WalkLevels(),
		HashedIndex:   c.Design != SetAssocBitSel,
	}
}

// BankSpec returns L2 bank b's array: the design at the bank's geometry,
// with the bank's own index functions (cache.Spec.Bank).
func (c Config) BankSpec(b int) cache.Spec {
	s := c.Design.Spec(c.L2Ways)
	s.Rows = c.L2Bytes / uint64(c.L2Banks) / c.LineBytes / uint64(c.L2Ways)
	s.Seed = c.Seed
	return s.Bank(b)
}

// l1Spec returns a core's L1 data cache array: conventional bit-selected
// set-associative.
func (c Config) l1Spec() cache.Spec {
	return cache.Spec{Org: cache.OrgSetAssoc, Ways: c.L1Ways, Rows: c.L1Bytes / c.LineBytes / uint64(c.L1Ways)}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 || c.Cores > 64 {
		return fmt.Errorf("sim: cores must be in [1,64] (a directory sharer field is at most 64 bits), got %d", c.Cores)
	}
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("sim: line size must be a power of two, got %d", c.LineBytes)
	}
	if c.L1Bytes == 0 || c.L1Ways <= 0 || c.L1Bytes%(c.LineBytes*uint64(c.L1Ways)) != 0 {
		return fmt.Errorf("sim: L1 geometry %dB/%dw does not divide into sets of %dB lines", c.L1Bytes, c.L1Ways, c.LineBytes)
	}
	if c.L2Bytes == 0 || c.L2Ways <= 0 || c.L2Banks <= 0 {
		return fmt.Errorf("sim: bad L2 geometry %dB/%dw/%d banks", c.L2Bytes, c.L2Ways, c.L2Banks)
	}
	if !c.Design.valid() {
		return fmt.Errorf("sim: unknown design %v", c.Design)
	}
	if c.L2Banks&(c.L2Banks-1) != 0 {
		return fmt.Errorf("sim: L2 banks must be a power of two, got %d", c.L2Banks)
	}
	bankBytes := c.L2Bytes / uint64(c.L2Banks)
	rows := bankBytes / c.LineBytes / uint64(c.L2Ways)
	if rows == 0 || rows&(rows-1) != 0 {
		return fmt.Errorf("sim: L2 bank rows %d not a power of two", rows)
	}
	if c.MemControllers <= 0 || c.MemControllers&(c.MemControllers-1) != 0 {
		return fmt.Errorf("sim: memory controllers must be a positive power of two, got %d", c.MemControllers)
	}
	if c.MemLatency < 0 || c.L1ToL2 < 0 {
		return fmt.Errorf("sim: negative latency")
	}
	if c.MemBytesPerCycle <= 0 {
		return fmt.Errorf("sim: memory bandwidth must be positive")
	}
	if c.InstructionsPerCore == 0 {
		return fmt.Errorf("sim: zero instructions per core")
	}
	if c.L2Policy == repl.KindOPT {
		return fmt.Errorf("sim: OPT is trace-driven; use CaptureL2Stream + ReplayL2 (§VI-B)")
	}
	return nil
}

// validateTraceDriven is Validate for the drivers that replay a captured
// stream, where OPT is legal (§VI-B).
func (c Config) validateTraceDriven() error {
	if c.L2Policy == repl.KindOPT {
		c.L2Policy = repl.KindLRU
	}
	return c.Validate()
}

// lineBits returns log2(LineBytes).
func (c Config) lineBits() uint {
	b := uint(0)
	for l := c.LineBytes; l > 1; l >>= 1 {
		b++
	}
	return b
}
