package energy

import (
	"fmt"

	"zcache/internal/cache"
	"zcache/internal/stats"
)

// SystemCounts are the activity totals a simulation produces; the system
// model turns them into energy. All counts are whole-run totals across the
// CMP (Table I: 32 cores, 2GHz).
type SystemCounts struct {
	Instructions uint64
	Cycles       uint64
	L1Accesses   uint64
	L2Accesses   uint64
	L2Hits       uint64
	L2Misses     uint64
	// L2WalkTagReads / L2Relocations are zcache replacement-process
	// totals (0 for conventional designs).
	L2WalkTagReads uint64
	L2Relocations  uint64
	Writebacks     uint64
	DRAMAccesses   uint64
}

// SystemModel is the McPAT-lite system energy model: per-event dynamic
// energies plus static power, calibrated so the Table I CMP lands near its
// stated ~90W TDP envelope at 2GHz.
type SystemModel struct {
	Cache *Model
	// CoreDynNJ is core dynamic energy per instruction (in-order,
	// Atom-like).
	CoreDynNJ float64
	// CoreLeakW is per-core static power (high-performance process).
	CoreLeakW float64
	Cores     int
	// L1AccessNJ is the energy of one L1 access (32KB 4-way).
	L1AccessNJ float64
	// NoCPerL2AccessNJ is network energy for an L1→L2-bank round trip.
	NoCPerL2AccessNJ float64
	// DRAMAccessNJ is the energy of one memory access (64B transfer).
	DRAMAccessNJ float64
	// UncoreLeakW is static power of NoC, MCUs, and misc uncore.
	UncoreLeakW float64
	// ClockHz converts cycles to seconds.
	ClockHz float64
}

// NewSystemModel returns the calibrated model for the Table I CMP.
func NewSystemModel() *SystemModel {
	return &SystemModel{
		Cache:            NewModel(),
		CoreDynNJ:        0.35,
		CoreLeakW:        0.9,
		Cores:            32,
		L1AccessNJ:       0.05,
		NoCPerL2AccessNJ: 0.30,
		DRAMAccessNJ:     15.0,
		UncoreLeakW:      6.0,
		ClockHz:          2e9,
	}
}

// Result is the timing/energy summary of one run under one L2 design.
type Result struct {
	Spec      CacheSpec
	IPC       float64
	Seconds   float64
	EnergyJ   float64
	AvgPowerW float64
	// BIPSPerW is the paper's Fig. 5 efficiency metric: billions of
	// instructions per second per watt (equivalently, instructions per
	// nanojoule).
	BIPSPerW float64
	// L2MPKI is L2 misses per thousand instructions (Fig. 4).
	L2MPKI float64
}

// Evaluate turns activity counts into the paper's metrics for the given L2
// design point.
func (m *SystemModel) Evaluate(spec CacheSpec, c SystemCounts) (Result, error) {
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if c.Cycles == 0 || c.Instructions == 0 {
		return Result{}, fmt.Errorf("energy: empty run (cycles=%d, instructions=%d)", c.Cycles, c.Instructions)
	}
	seconds := float64(c.Cycles) / m.ClockHz

	var walkPerMiss, relocPerMiss float64
	if c.L2Misses > 0 {
		walkPerMiss = float64(c.L2WalkTagReads) / float64(c.L2Misses)
		relocPerMiss = float64(c.L2Relocations) / float64(c.L2Misses)
	}

	dynamic := float64(c.Instructions)*m.CoreDynNJ +
		float64(c.L1Accesses)*m.L1AccessNJ +
		float64(c.L2Accesses)*m.NoCPerL2AccessNJ +
		float64(c.L2Hits)*m.Cache.HitEnergyNJ(spec) +
		float64(c.L2Misses)*m.Cache.MissEnergyNJ(spec, walkPerMiss, relocPerMiss) +
		float64(c.DRAMAccesses)*m.DRAMAccessNJ
	dynamicJ := dynamic * 1e-9

	staticW := float64(m.Cores)*m.CoreLeakW + m.Cache.LeakageW(spec) + m.UncoreLeakW
	staticJ := staticW * seconds

	energy := dynamicJ + staticJ
	ipc := float64(c.Instructions) / float64(c.Cycles) / float64(m.Cores)
	bips := float64(c.Instructions) / 1e9 / seconds
	return Result{
		Spec:      spec,
		IPC:       ipc,
		Seconds:   seconds,
		EnergyJ:   energy,
		AvgPowerW: energy / seconds,
		BIPSPerW:  bips / (energy / seconds),
		L2MPKI:    float64(c.L2Misses) / (float64(c.Instructions) / 1000),
	}, nil
}

// TableIIRow is one design point of the paper's Table II.
type TableIIRow struct {
	Label        string
	Spec         CacheSpec
	Candidates   int
	HitLatency   float64
	HitEnergyNJ  float64
	MissEnergyNJ float64
	AreaMM2      float64
	LeakageW     float64
}

// TableII generates the paper's Table II design-space rows for an 8MB,
// 64B-line, 8-bank L2: set-associative caches of 4–32 ways and 4-way
// zcaches with 2- and 3-level walks, in serial and parallel lookup.
func TableII(m *Model) []TableIIRow {
	var rows []TableIIRow
	for _, lk := range []Lookup{Serial, Parallel} {
		for _, d := range []struct{ ways, levels int }{{4, 0}, {8, 0}, {16, 0}, {32, 0}, {4, 2}, {4, 3}} {
			s := CacheSpec{CapacityBytes: 8 << 20, LineBytes: 64, Banks: 8,
				Ways: d.ways, Lookup: lk, ZLevels: d.levels, HashedIndex: true}
			cands := d.ways
			if d.levels > 0 {
				cands = cache.ReplacementCandidates(d.ways, d.levels)
			}
			walk, relocs := DefaultWalkStats(s.Ways, s.ZLevels)
			rows = append(rows, TableIIRow{
				Label:        cache.DesignLabel(s.Ways, s.ZLevels, s.HashedIndex) + " " + lk.String(),
				Spec:         s,
				Candidates:   cands,
				HitLatency:   m.HitLatencyExact(s),
				HitEnergyNJ:  m.HitEnergyNJ(s),
				MissEnergyNJ: m.MissEnergyNJ(s, walk, relocs),
				AreaMM2:      m.AreaMM2(s),
				LeakageW:     m.LeakageW(s),
			})
		}
	}
	return rows
}

// RenderTableII formats the rows as the plain-text table `runlab cost`
// prints.
func RenderTableII(rows []TableIIRow) string {
	t := stats.NewTable("design", "ways", "cands", "hit-lat(cyc)", "hit-E(nJ)", "miss-E(nJ)", "area(mm2)", "leak(W)")
	for _, r := range rows {
		t.AddRow(r.Label, r.Spec.Ways, r.Candidates, r.HitLatency, r.HitEnergyNJ, r.MissEnergyNJ, r.AreaMM2, r.LeakageW)
	}
	return t.String()
}
