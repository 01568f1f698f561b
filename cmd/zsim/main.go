// Command zsim runs one workload of the 72-entry suite on one L2 design
// point of the Table I CMP and prints the full metric set: MPKI, IPC,
// energy, bandwidth, and replacement-process activity.
//
// Usage:
//
//	zsim -workload canneal -design z3 -ways 4 -policy lru -lookup serial
//	zsim -list            # list the workload suite
package main

import (
	"flag"
	"fmt"
	"log"

	"zcache"
	"zcache/internal/energy"
	"zcache/internal/sim"
	"zcache/internal/stats"
	"zcache/internal/workloads"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("zsim: ")
	workload := flag.String("workload", "canneal", "workload name from the suite")
	design := flag.String("design", "z3", `L2 design: "sa", "sa-h3", "skew", "z2", "z3"`)
	ways := flag.Int("ways", 4, "L2 ways")
	policy := flag.String("policy", "lru", `L2 policy: "lru", "lru-full", "opt", "random", "lfu", "srrip", "drrip"`)
	lookup := flag.String("lookup", "serial", `"serial" or "parallel"`)
	full := flag.Bool("full", false, "paper-scale machine (32 cores, 8MB L2)")
	list := flag.Bool("list", false, "list the workload suite and exit")
	flag.Parse()

	if *list {
		for _, w := range workloads.Suite() {
			fmt.Printf("%-16s %s\n", w.Name, w.Class)
		}
		return
	}
	w, ok := workloads.ByName(*workload)
	if !ok {
		log.Fatalf("unknown workload %q (use -list)", *workload)
	}
	d, err := parseDesign(*design, *ways)
	if err != nil {
		log.Fatal(err)
	}
	pol, err := sim.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	lk := energy.Serial
	if *lookup == "parallel" {
		lk = energy.Parallel
	}
	preset := zcache.QuickPreset()
	if *full {
		preset = zcache.FullPreset()
	}
	e := zcache.NewExperiment(preset)
	r, err := e.Run(w, d, pol, lk)
	if err != nil {
		log.Fatal(err)
	}
	c := r.Metrics.Counts
	t := stats.NewTable("metric", "value")
	t.AddRow("workload", r.Workload)
	t.AddRow("design", fmt.Sprintf("%s (%d ways, %s, %v)", d.Label, d.Ways, lk, pol))
	t.AddRow("instructions", c.Instructions)
	t.AddRow("cycles", c.Cycles)
	t.AddRow("IPC (per core)", r.IPC())
	t.AddRow("L1 accesses", c.L1Accesses)
	t.AddRow("L2 accesses", c.L2Accesses)
	t.AddRow("L2 hits", c.L2Hits)
	t.AddRow("L2 misses", c.L2Misses)
	t.AddRow("L2 MPKI", r.MPKI())
	t.AddRow("walk tag reads", c.L2WalkTagReads)
	t.AddRow("relocations", c.L2Relocations)
	t.AddRow("writebacks", c.Writebacks)
	t.AddRow("DRAM accesses", c.DRAMAccesses)
	t.AddRow("invalidations", r.Metrics.Invalidations)
	t.AddRow("bank demand load (acc/cyc/bank)", r.Metrics.BankDemandLoad)
	t.AddRow("bank tag load (acc/cyc/bank)", r.Metrics.BankTagLoad)
	t.AddRow("energy (J)", r.Eval.EnergyJ)
	t.AddRow("avg power (W)", r.Eval.AvgPowerW)
	t.AddRow("BIPS/W", r.Eval.BIPSPerW)
	fmt.Print(t.String())
}

func parseDesign(name string, ways int) (zcache.DesignPoint, error) {
	switch name {
	case "sa":
		return zcache.DesignPoint{Label: fmt.Sprintf("SAbit-%d", ways), Design: sim.SetAssocBitSel, Ways: ways}, nil
	case "sa-h3":
		return zcache.DesignPoint{Label: fmt.Sprintf("SA-%d", ways), Design: sim.SetAssocH3, Ways: ways}, nil
	case "skew":
		return zcache.DesignPoint{Label: fmt.Sprintf("Z%d/%d", ways, ways), Design: sim.SkewAssoc, Ways: ways}, nil
	case "z2":
		r := zcache.ReplacementCandidates(ways, 2)
		return zcache.DesignPoint{Label: fmt.Sprintf("Z%d/%d", ways, r), Design: sim.ZCacheL2, Ways: ways}, nil
	case "z3":
		r := zcache.ReplacementCandidates(ways, 3)
		return zcache.DesignPoint{Label: fmt.Sprintf("Z%d/%d", ways, r), Design: sim.ZCacheL3, Ways: ways}, nil
	default:
		return zcache.DesignPoint{}, fmt.Errorf("unknown design %q", name)
	}
}
