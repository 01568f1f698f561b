package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"zcache"
	"zcache/internal/energy"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/stats"
	"zcache/internal/workloads"
)

// benchSuiteWorkloads is the reduced workload set the validated suite and
// the repo benchmark's sim-* workloads (bench/simwl.go) both use: two
// L1-resident, two cache-sensitive, four in between.
var benchSuiteWorkloads = []string{
	"blackscholes", "gamess", "ammp", "canneal",
	"cactusADM", "mcf", "libquantum", "wupwise",
}

// suiteLookups is the lookup axis of the validated suite: the Fig. 4 ∪
// Fig. 5 cell set runs every design under both serial and parallel lookup.
var suiteLookups = []energy.Lookup{energy.Serial, energy.Parallel}

// cmdValidateSampled measures sampled execution against its two contracts
// and fails the process if either is violated:
//
//   - Accuracy: every (workload, design) cell's sampled miss ratio must be
//     within -max-rel-err of the full-stream replay of the same captured
//     stream — the estimator's exact limit. (Execution-driven results
//     differ from replay structurally — no back-invalidations, cold replay
//     L1 state — so replay is the honest reference; DESIGN.md §13.)
//   - Work: over the suite's (workload, design) rows, the references the
//     measured legs walk must be at most maxRefsFrac of the references in
//     the full streams — a count, so it repeats exactly. The wall-time
//     speedup over the exact execution-driven suite (capture + plan + legs,
//     all cells cold) is printed beside it, ungated: it measured 4.7–5.7×
//     on one tree. The suite is the Fig. 4 ∪ Fig. 5 cell set: every design
//     × {serial, parallel} lookup, which sampled execution serves from one
//     walk per design.
//
// maxRefsFrac sits just over the default plan's 12 legs of 32 intervals.
const maxRefsFrac = 0.40

func cmdValidateSampled(args []string) error {
	fs := flag.NewFlagSet("validate-sampled", flag.ExitOnError)
	presetFlag := fs.String("preset", "test", "test | quick | full")
	policyFlag := fs.String("policy", "lru", "replacement policy")
	workloadsFlag := fs.String("workloads", "", "comma-separated subset (default: bench suite)")
	intervals := fs.Int("intervals", 0, "interval count (0 = default 32)")
	clusters := fs.Int("clusters", 0, "cluster/leg count (0 = default 12)")
	maxRelErr := fs.Float64("max-rel-err", 0.02, "per-cell miss-ratio error bound vs full replay")
	fs.Parse(args)

	preset, err := parsePreset(*presetFlag)
	if err != nil {
		return err
	}
	pol, err := sim.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	if pol == sim.PolicyOPT {
		return fmt.Errorf("opt is not sampleable (next-use spans the full stream)")
	}
	names := benchSuiteWorkloads
	if *workloadsFlag != "" {
		names = strings.Split(*workloadsFlag, ",")
	}
	var ws []workloads.Workload
	for _, n := range names {
		w, ok := workloads.ByName(strings.TrimSpace(n))
		if !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}
	designs := append([]zcache.DesignPoint{zcache.BaselineDesign()}, zcache.Fig4Designs()...)
	spec := sample.Spec{Intervals: *intervals, Clusters: *clusters}

	// Exact leg: every suite cell execution-driven, cold.
	exact := zcache.NewExperiment(preset)
	start := time.Now()
	for _, w := range ws {
		for _, d := range designs {
			for _, lk := range suiteLookups {
				if _, err := exact.Run(w, d, pol, lk); err != nil {
					return fmt.Errorf("exact %s/%s: %w", w.Name, d.Label, err)
				}
			}
		}
	}
	exactWall := time.Since(start)

	// Sampled leg: same cells, cold (capture + plan + walks included).
	sampled := zcache.NewExperiment(preset)
	sampled.Sampled = &spec
	start = time.Now()
	results := map[string]zcache.RunResult{}
	for _, w := range ws {
		for _, d := range designs {
			for _, lk := range suiteLookups {
				r, err := sampled.Run(w, d, pol, lk)
				if err != nil {
					return fmt.Errorf("sampled %s/%s: %w", w.Name, d.Label, err)
				}
				if lk == energy.Serial {
					results[w.Name+"/"+d.Label] = r
				}
			}
		}
	}
	sampledWall := time.Since(start)
	speedup := float64(exactWall) / float64(sampledWall)

	// Accuracy leg: full-stream replay per (workload, design) as reference.
	// The lookup axis does not change hit/miss outcomes, so serial covers it.
	missRatio := func(m sim.Metrics) float64 {
		if m.Counts.L2Accesses == 0 {
			return 0
		}
		return float64(m.Counts.L2Misses) / float64(m.Counts.L2Accesses)
	}
	t := stats.NewTable("workload", "design", "replay miss", "sampled miss", "rel err", "err95", "dew skips")
	var maxErr float64
	var totalRefs, sampledRefs, skippedHits uint64
	failures := 0
	for _, w := range ws {
		stream, err := sampled.Capture(w)
		if err != nil {
			return err
		}
		for _, d := range designs {
			full, err := sim.ReplayL2(sampled.Config(d, pol, energy.Serial), stream)
			if err != nil {
				return err
			}
			r := results[w.Name+"/"+d.Label]
			totalRefs += uint64(r.Sampled.TotalRefs)
			sampledRefs += uint64(r.Sampled.SampledRefs)
			skippedHits += r.Sampled.SkippedHits
			fm, sm := missRatio(full), missRatio(r.Metrics)
			rel := 0.0
			if fm > 0 {
				rel = (sm - fm) / fm
			} else if sm > 0 {
				rel = 1
			}
			abs := rel
			if abs < 0 {
				abs = -abs
			}
			if abs > maxErr {
				maxErr = abs
			}
			mark := ""
			if abs > *maxRelErr {
				failures++
				mark = "  FAIL"
			}
			t.AddRow(w.Name, d.Label, fmt.Sprintf("%.4f", fm), fmt.Sprintf("%.4f", sm),
				fmt.Sprintf("%+.3f%%%s", 100*rel, mark),
				fmt.Sprintf("±%.4f", r.Sampled.MissRatioErr), r.Sampled.SkippedHits)
		}
	}
	fmt.Print(t.String())
	fmt.Printf("\nsuite: %d cells (%d workloads × %d designs × %d lookups), policy %s, preset %s\n",
		len(ws)*len(designs)*len(suiteLookups), len(ws), len(designs), len(suiteLookups), *policyFlag, *presetFlag)
	refsFrac := float64(sampledRefs) / float64(max(totalRefs, 1))
	fmt.Printf("measured legs walk %d of %d references: %.4f (bound %.2f); DEW settled %d of them without the arrays\n",
		sampledRefs, totalRefs, refsFrac, maxRefsFrac, skippedHits)
	fmt.Printf("exact %s  sampled %s  speedup %.2fx (not gated)\n",
		exactWall.Round(time.Millisecond), sampledWall.Round(time.Millisecond), speedup)
	fmt.Printf("max |rel err| %.3f%% (bound %.1f%%)\n", 100*maxErr, 100**maxRelErr)

	if failures > 0 {
		return fmt.Errorf("%d cell(s) exceed the %.1f%% miss-ratio error bound", failures, 100**maxRelErr)
	}
	if refsFrac > maxRefsFrac {
		return fmt.Errorf("measured legs walk %.4f of the references, over the %.2f bound", refsFrac, maxRefsFrac)
	}
	log.Printf("validate-sampled: OK")
	return nil
}
