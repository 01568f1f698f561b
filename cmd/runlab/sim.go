package main

import (
	"fmt"
	"io"

	"zcache"
	"zcache/internal/cache"
	"zcache/internal/energy"
	"zcache/internal/sim"
	"zcache/internal/stats"
	"zcache/internal/workloads"
)

// sim runs one workload of the 72-entry suite on one L2 design point of the
// Table I CMP and prints the full metric set: MPKI, IPC, energy, bandwidth,
// and replacement-process activity.
//
//	runlab sim -workload canneal -design z-L3 -ways 4 -policy lru -lookup serial
//	runlab sim -list            # list the workload suite
func (c *cli) sim(args []string) error {
	sh := newShared()
	fs := c.flagSet("sim")
	sh.register(fs, "preset", "policy")
	workload := fs.String("workload", "canneal", "workload name from the suite")
	design := fs.String("design", sim.ZCacheL3.String(), `L2 design: "sa", "sa-h3", "skew", "z-L2", "z-L3"`)
	ways := fs.Int("ways", 4, "L2 ways")
	lookup := fs.String("lookup", "serial", `"serial" or "parallel"`)
	list := fs.Bool("list", false, "list the workload suite and exit")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *list {
		for _, w := range workloads.Suite() {
			fmt.Fprintf(c.stdout, "%-16s %s\n", w.Name, w.Class)
		}
		return nil
	}
	w, ok := workloads.ByName(*workload)
	if !ok {
		return usagef("unknown workload %q (use -list)", *workload)
	}
	sd, err := sim.ParseDesign(*design)
	if err != nil {
		return usagef("%v", err)
	}
	d := zcache.NewDesignPoint(sd, *ways)
	pol, err := sh.policyValue()
	if err != nil {
		return err
	}
	var lk energy.Lookup
	switch *lookup {
	case "serial":
		lk = energy.Serial
	case "parallel":
		lk = energy.Parallel
	default:
		return usagef(`unknown lookup %q: "serial" or "parallel"`, *lookup)
	}
	preset, err := sh.presetValue()
	if err != nil {
		return err
	}
	r, err := zcache.NewExperiment(preset).Run(w, d, pol, lk)
	if err != nil {
		return fmt.Errorf("%s on %s: %w", w.Name, d.Label, err)
	}
	n := r.Metrics.Counts
	t := stats.NewTable("metric", "value")
	t.AddRow("workload", r.Workload)
	t.AddRow("design", fmt.Sprintf("%s (%d ways, %s, %v)", d.Label, d.Ways, lk, pol))
	t.AddRow("instructions", n.Instructions)
	t.AddRow("cycles", n.Cycles)
	t.AddRow("IPC (per core)", r.IPC())
	t.AddRow("L1 accesses", n.L1Accesses)
	t.AddRow("L2 accesses", n.L2Accesses)
	t.AddRow("L2 hits", n.L2Hits)
	t.AddRow("L2 misses", n.L2Misses)
	t.AddRow("L2 MPKI", r.MPKI())
	t.AddRow("walk tag reads", n.L2WalkTagReads)
	t.AddRow("relocations", n.L2Relocations)
	t.AddRow("writebacks", n.Writebacks)
	t.AddRow("DRAM accesses", n.DRAMAccesses)
	t.AddRow("invalidations", r.Metrics.Invalidations)
	t.AddRow("bank demand load (acc/cyc/bank)", r.Metrics.BankDemandLoad)
	t.AddRow("bank tag load (acc/cyc/bank)", r.Metrics.BankTagLoad)
	t.AddRow("energy (J)", r.Eval.EnergyJ)
	t.AddRow("avg power (W)", r.Eval.AvgPowerW)
	t.AddRow("BIPS/W", r.Eval.BIPSPerW)
	fmt.Fprint(c.stdout, t.String())
	return nil
}

// cost regenerates the paper's Table II — timing, area, and power of
// set-associative caches and zcaches with varying associativities (8MB,
// 64B lines, 8 banks, serial and parallel lookup) — from the calibrated
// CACTI-lite model, and the §III-B figures of merit:
//
//	runlab cost          # Table II
//	runlab cost merit    # §III-B: R, T_walk, E_miss across (W, L)
//	runlab cost ratios   # anchor ratios vs the paper's quoted values
//	runlab cost sweep    # capacities 1-16MB: SA-4 / SA-32 / Z4/52
func (c *cli) cost(args []string) error {
	rest, err := parseArgs(c.flagSet("cost"), args)
	if err != nil {
		return err
	}
	table := "table2"
	if len(rest) > 1 {
		return usagef("cost takes one table name, got %q", rest)
	} else if len(rest) == 1 {
		table = rest[0]
	}
	render := map[string]func(io.Writer, *energy.Model){
		"table2": printTableII,
		"merit":  printMerit,
		"ratios": printRatios,
		"sweep":  printSweep,
	}[table]
	if render == nil {
		return usagef("unknown cost table %q: table2, merit, ratios, or sweep", table)
	}
	render(c.stdout, energy.NewModel())
	return nil
}

func printTableII(w io.Writer, m *energy.Model) {
	fmt.Fprintln(w, "Table II: 8MB L2, 64B lines, 8 banks, 32nm (calibrated model)")
	fmt.Fprintln(w)
	fmt.Fprint(w, energy.RenderTableII(energy.TableII(m)))
}

// printSweep shows that the zcache's cost advantage is capacity-independent:
// at every size, Z4/52 keeps SA-4 hit costs while SA-32 pays the wide-port
// taxes the paper quantifies at 8MB.
func printSweep(w io.Writer, m *energy.Model) {
	fmt.Fprintln(w, "Capacity sweep (serial lookup, 64B lines, 8 banks):")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "NOTE: the model is calibrated at the paper's 8MB point; across capacities")
	fmt.Fprintln(w, "it scales area linearly and holds per-way latency/energy ratios constant")
	fmt.Fprintln(w, "(CACTI adds sqrt-capacity wire terms this simplified model omits). The")
	fmt.Fprintln(w, "design comparison within each capacity row is the meaningful part.")
	fmt.Fprintln(w)
	t := stats.NewTable("capacity", "design", "hit-lat(cyc)", "hit-E(nJ)", "miss-E(nJ)", "area(mm2)")
	for _, mb := range []uint64{1, 2, 4, 8, 16} {
		for _, d := range []struct{ ways, levels int }{{4, 0}, {32, 0}, {4, 3}} {
			s := energy.CacheSpec{
				CapacityBytes: mb << 20, LineBytes: 64, Banks: 8,
				Ways: d.ways, ZLevels: d.levels, HashedIndex: true,
			}
			walk, relocs := energy.DefaultWalkStats(d.ways, d.levels)
			t.AddRow(fmt.Sprintf("%dMB", mb), cache.DesignLabel(d.ways, d.levels, true),
				m.HitLatencyExact(s), m.HitEnergyNJ(s),
				m.MissEnergyNJ(s, walk, relocs), m.AreaMM2(s))
		}
	}
	fmt.Fprint(w, t.String())
}

func printMerit(w io.Writer, m *energy.Model) {
	fmt.Fprintln(w, "§III-B figures of merit (T_tag = 4 cycles)")
	fmt.Fprintln(w)
	t := stats.NewTable("ways", "levels", "R", "T_walk(cyc)", "walk-reads", "avg-relocs", "E_miss(nJ)")
	for _, ways := range []int{2, 3, 4, 8} {
		for l := 1; l <= 3; l++ {
			r := cache.ReplacementCandidates(ways, l)
			walk, relocs := energy.DefaultWalkStats(ways, l)
			spec := energy.CacheSpec{
				CapacityBytes: 8 << 20, LineBytes: 64, Banks: 8,
				Ways: ways, ZLevels: l, HashedIndex: true,
			}
			t.AddRow(ways, l, r, cache.WalkLatency(ways, l, 4), walk, relocs, m.MissEnergyNJ(spec, walk, relocs))
		}
	}
	fmt.Fprint(w, t.String())
}

func printRatios(w io.Writer, m *energy.Model) {
	spec := func(ways int, lk energy.Lookup, z int) energy.CacheSpec {
		return energy.CacheSpec{
			CapacityBytes: 8 << 20, LineBytes: 64, Banks: 8,
			Ways: ways, Lookup: lk, ZLevels: z, HashedIndex: true,
		}
	}
	t := stats.NewTable("anchor", "model", "paper")
	t.AddRow("area SA-32/SA-4 (serial)", m.AreaMM2(spec(32, energy.Serial, 0))/m.AreaMM2(spec(4, energy.Serial, 0)), "1.22")
	t.AddRow("hit latency SA-32/SA-4 (serial)", m.HitLatencyExact(spec(32, energy.Serial, 0))/m.HitLatencyExact(spec(4, energy.Serial, 0)), "1.23")
	t.AddRow("hit energy SA-32/SA-4 (serial)", m.HitEnergyNJ(spec(32, energy.Serial, 0))/m.HitEnergyNJ(spec(4, energy.Serial, 0)), "2.0")
	t.AddRow("hit energy SA-32/SA-4 (parallel)", m.HitEnergyNJ(spec(32, energy.Parallel, 0))/m.HitEnergyNJ(spec(4, energy.Parallel, 0)), "3.3")
	t.AddRow("hit latency SA-32/SA-4 (parallel)", m.HitLatencyExact(spec(32, energy.Parallel, 0))/m.HitLatencyExact(spec(4, energy.Parallel, 0)), "1.32")
	wz, rz := energy.DefaultWalkStats(4, 3)
	t.AddRow("miss energy Z4/52 / SA-32 (serial)", m.MissEnergyNJ(spec(4, energy.Serial, 3), wz, rz)/m.MissEnergyNJ(spec(32, energy.Serial, 0), 0, 0), "~1.3")
	fmt.Fprint(w, t.String())
}
