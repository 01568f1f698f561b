package main

import (
	"fmt"
	"math"
	"time"

	"zcache"
	"zcache/internal/energy"
	"zcache/internal/repl"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/stats"
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
//     within maxMissRatioErr of the full-stream replay of the same captured
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
// maxMissRatioErr is a constant, not a flag: a gate the caller can loosen
// from the command line gates nothing. maxRefsFrac sits just over the
// default plan's 12 legs of 32 intervals.
const (
	maxMissRatioErr = 0.02
	maxRefsFrac     = 0.40
)

func (c *cli) validateSampled(args []string) error {
	sh := newShared()
	sh.preset = "test"
	fs := c.flagSet("validate-sampled")
	sh.register(fs, "preset", "policy", "workloads", "intervals", "clusters")
	if err := parse(fs, args); err != nil {
		return err
	}

	preset, err := sh.presetValue()
	if err != nil {
		return err
	}
	pol, err := sh.policyValue()
	if err != nil {
		return err
	}
	if pol == repl.KindOPT {
		return usagef("opt is not sampleable (next-use spans the full stream)")
	}
	names, err := sh.subset()
	if err != nil {
		return err
	}
	if names == nil {
		names = benchSuiteWorkloads
	}
	ws, err := zcache.SuiteWorkloads(names)
	if err != nil {
		return err
	}
	designs := append([]zcache.DesignPoint{zcache.BaselineDesign()}, zcache.Fig4Designs()...)
	spec := sample.Spec{Intervals: sh.intervals, Clusters: sh.clusters}

	// runAll runs every suite cell cold on e and keys the serial-lookup
	// results by workload/design.
	runAll := func(e *zcache.Experiment, leg string) (map[string]zcache.RunResult, time.Duration, error) {
		start := time.Now()
		results := map[string]zcache.RunResult{}
		for _, w := range ws {
			for _, d := range designs {
				for _, lk := range suiteLookups {
					r, err := e.Run(w, d, pol, lk)
					if err != nil {
						return nil, 0, fmt.Errorf("%s %s/%s: %w", leg, w.Name, d.Label, err)
					}
					if lk == energy.Serial {
						results[w.Name+"/"+d.Label] = r
					}
				}
			}
		}
		return results, time.Since(start), nil
	}
	// Exact leg: every suite cell execution-driven.
	_, exactWall, err := runAll(zcache.NewExperiment(preset), "exact")
	if err != nil {
		return err
	}
	// Sampled leg: same cells (capture + plan + walks included).
	sampled := zcache.NewExperiment(preset)
	sampled.Sampled = &spec
	results, sampledWall, err := runAll(sampled, "sampled")
	if err != nil {
		return err
	}
	speedup := float64(exactWall) / float64(sampledWall)

	// Accuracy leg: full-stream replay per (workload, design) as reference.
	// The lookup axis does not change hit/miss outcomes, so serial covers it.
	missRatio := func(m sim.Metrics) float64 {
		if m.Counts.L2Accesses == 0 {
			return 0
		}
		return float64(m.Counts.L2Misses) / float64(m.Counts.L2Accesses)
	}
	t := stats.NewTable("workload", "design", "replay miss", "sampled miss", "rel err", "err95")
	var maxErr float64
	var totalRefs, sampledRefs uint64
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
			fm, sm := missRatio(full), missRatio(r.Metrics)
			rel := 0.0
			if fm > 0 {
				rel = (sm - fm) / fm
			} else if sm > 0 {
				rel = 1
			}
			abs := math.Abs(rel)
			maxErr = max(maxErr, abs)
			mark := ""
			if abs > maxMissRatioErr {
				failures++
				mark = "  FAIL"
			}
			t.AddRow(w.Name, d.Label, fmt.Sprintf("%.4f", fm), fmt.Sprintf("%.4f", sm),
				fmt.Sprintf("%+.3f%%%s", 100*rel, mark),
				fmt.Sprintf("±%.4f", r.Sampled.MissRatioErr))
		}
	}
	fmt.Fprint(c.stdout, t.String())
	fmt.Fprintf(c.stdout, "\nsuite: %d cells (%d workloads × %d designs × %d lookups), policy %s, preset %s\n",
		len(ws)*len(designs)*len(suiteLookups), len(ws), len(designs), len(suiteLookups), sh.policy, sh.preset)
	refsFrac := float64(sampledRefs) / float64(max(totalRefs, 1))
	fmt.Fprintf(c.stdout, "measured legs walk %d of %d references: %.4f (bound %.2f)\n",
		sampledRefs, totalRefs, refsFrac, maxRefsFrac)
	fmt.Fprintf(c.stdout, "exact %s  sampled %s  speedup %.2fx (not gated)\n",
		exactWall.Round(time.Millisecond), sampledWall.Round(time.Millisecond), speedup)
	fmt.Fprintf(c.stdout, "max |rel err| %.3f%% (bound %.1f%%)\n", 100*maxErr, 100*maxMissRatioErr)

	if failures > 0 {
		return fmt.Errorf("%d cell(s) exceed the %.1f%% miss-ratio error bound", failures, 100*maxMissRatioErr)
	}
	if refsFrac > maxRefsFrac {
		return fmt.Errorf("measured legs walk %.4f of the references, over the %.2f bound", refsFrac, maxRefsFrac)
	}
	c.log.Printf("validate-sampled: OK")
	return nil
}
