package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"testing"
	"time"

	"zcache"
	"zcache/internal/cache"
	"zcache/internal/energy"
	"zcache/internal/hash"
	"zcache/internal/prof"
	"zcache/internal/repl"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/workloads"
)

// benchSuiteWorkloads mirrors the reduced workload set the repo's figure
// benchmarks use: two L1-resident, two cache-sensitive, four in between.
var benchSuiteWorkloads = []string{
	"blackscholes", "gamess", "ammp", "canneal",
	"cactusADM", "mcf", "libquantum", "wupwise",
}

// kernelResult is one steady-state access-kernel measurement.
type kernelResult struct {
	Name            string  `json:"name"`
	NsPerAccess     float64 `json:"ns_per_access"`
	AllocsPerAccess float64 `json:"allocs_per_access"`
	MissRate        float64 `json:"miss_rate"`
	Iterations      int     `json:"iterations"`

	// Walks and WalkLevels profile the replacement walk for zcache
	// kernels (schema 2): total walks run during the allocs-measurement
	// pass, and the per-level frontier size and tag-read cost averaged
	// over those walks. Empty for arrays without a walk.
	Walks      uint64      `json:"walks,omitempty"`
	WalkLevels []walkLevel `json:"walk_levels,omitempty"`
}

// walkLevel is one level of a zcache kernel's averaged walk profile.
type walkLevel struct {
	Level int `json:"level"`
	// CandidatesPerWalk is the average frontier emitted at this level
	// (level l of a W-way zcache emits W·(W-1)^(l-1) candidates when the
	// walk runs to completion; early-stops pull the average down).
	CandidatesPerWalk float64 `json:"candidates_per_walk"`
	// TagReadsPerWalk is the average single-way walk tag reads charged
	// at this level (zero at level 1: the demand lookup paid for those).
	TagReadsPerWalk float64 `json:"tag_reads_per_walk"`
}

// benchReport is the machine-readable output of `runlab bench`.
type benchReport struct {
	Schema    int            `json:"schema"`
	Go        string         `json:"go"`
	Kernels   []kernelResult `json:"kernels"`
	ColdSuite struct {
		Preset         string   `json:"preset"`
		Policy         string   `json:"policy"`
		Workloads      []string `json:"workloads"`
		WallNs         int64    `json:"wall_ns"`
		BaselineWallNs int64    `json:"baseline_wall_ns,omitempty"`
		Speedup        float64  `json:"speedup,omitempty"`
	} `json:"cold_suite"`
	// SampledSuite (schema 3) measures sampled execution over the Fig. 4
	// ∪ Fig. 5 cell set (every design × both lookups) against the exact
	// execution-driven run of the same cells, plus the worst per-cell
	// miss-ratio error vs full-stream replay.
	SampledSuite struct {
		Intervals      int     `json:"intervals"`
		Clusters       int     `json:"clusters"`
		Cells          int     `json:"cells"`
		WallNs         int64   `json:"wall_ns"`
		ExactWallNs    int64   `json:"exact_wall_ns"`
		SpeedupVsExact float64 `json:"speedup_vs_exact"`
		MaxRelErr      float64 `json:"max_rel_err"`
	} `json:"sampled_suite"`
}

// kernelSpec builds one cache controller for the access-kernel benchmarks.
type kernelSpec struct {
	name  string
	build func() (*cache.Cache, error)
}

func kernelSpecs() []kernelSpec {
	return []kernelSpec{
		{"zcache-walk", func() (*cache.Cache, error) {
			const rows, ways, levels = 2048, 4, 2
			fns := make([]hash.Func, ways)
			for w := range fns {
				h, err := hash.NewH3(uint64(w)+1, rows)
				if err != nil {
					return nil, err
				}
				fns[w] = h
			}
			z, err := cache.NewZCache(rows, fns, levels)
			if err != nil {
				return nil, err
			}
			pol, err := repl.NewLRU(z.Blocks())
			if err != nil {
				return nil, err
			}
			return cache.New(z, pol, 6)
		}},
		{"setassoc-h3", func() (*cache.Cache, error) {
			const ways, sets = 4, 2048
			idx, err := hash.NewH3(7, sets)
			if err != nil {
				return nil, err
			}
			a, err := cache.NewSetAssoc(ways, sets, idx)
			if err != nil {
				return nil, err
			}
			pol, err := repl.NewLRU(a.Blocks())
			if err != nil {
				return nil, err
			}
			return cache.New(a, pol, 6)
		}},
		{"skew", func() (*cache.Cache, error) {
			const ways, rows = 4, 2048
			fns := make([]hash.Func, ways)
			for w := range fns {
				h, err := hash.NewH3(uint64(w)+11, rows)
				if err != nil {
					return nil, err
				}
				fns[w] = h
			}
			a, err := cache.NewSkew(rows, fns)
			if err != nil {
				return nil, err
			}
			pol, err := repl.NewLRU(a.Blocks())
			if err != nil {
				return nil, err
			}
			return cache.New(a, pol, 6)
		}},
	}
}

// kernelStream mirrors the kernel tests' address stream: deterministic
// pseudo-random lines over twice the cache's capacity, every eighth access a
// write.
func kernelStream(c *cache.Cache) ([]uint64, []bool) {
	footprint := uint64(c.Array().Blocks()) * 64 * 2
	addrs := make([]uint64, 1<<16)
	writes := make([]bool, len(addrs))
	for i := range addrs {
		addrs[i] = (hash.Mix64(uint64(i)+1) % footprint) &^ 63
		writes[i] = i&7 == 0
	}
	return addrs, writes
}

// measureKernel benchmarks one spec: ns/access via testing.Benchmark on a
// warmed controller, allocs/access via testing.AllocsPerRun (exact).
func measureKernel(spec kernelSpec) (kernelResult, error) {
	var buildErr error
	r := testing.Benchmark(func(b *testing.B) {
		c, err := spec.build()
		if err != nil {
			buildErr = err
			b.Skip(err)
		}
		addrs, writes := kernelStream(c)
		for i := range addrs {
			c.Access(addrs[i], writes[i])
		}
		b.ResetTimer()
		mask := len(addrs) - 1
		for i := 0; i < b.N; i++ {
			c.Access(addrs[i&mask], writes[i&mask])
		}
	})
	if buildErr != nil {
		return kernelResult{}, buildErr
	}

	c, err := spec.build()
	if err != nil {
		return kernelResult{}, err
	}
	addrs, writes := kernelStream(c)
	for i := range addrs {
		c.Access(addrs[i], writes[i])
	}
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		c.Access(addrs[i&(len(addrs)-1)], writes[i&(len(addrs)-1)])
		i++
	})
	st := c.Stats()
	missRate := 0.0
	if st.Accesses > 0 {
		missRate = float64(st.Misses) / float64(st.Accesses)
	}
	res := kernelResult{
		Name:            spec.name,
		NsPerAccess:     float64(r.NsPerOp()),
		AllocsPerAccess: allocs,
		MissRate:        missRate,
		Iterations:      r.N,
	}
	if z, ok := c.Array().(*cache.ZCache); ok {
		walks, lvls := z.WalkProfile()
		res.Walks = walks
		if walks > 0 {
			for _, l := range lvls {
				res.WalkLevels = append(res.WalkLevels, walkLevel{
					Level:             l.Level,
					CandidatesPerWalk: float64(l.Candidates) / float64(walks),
					TagReadsPerWalk:   float64(l.TagReads) / float64(walks),
				})
			}
		}
	}
	return res, nil
}

// measureSampledSuite runs the Fig. 4 ∪ Fig. 5 cell set exact and sampled
// (both cold) and fills the report's sampled_suite block.
func measureSampledSuite(rep *benchReport, preset zcache.Preset, pol sim.Policy) error {
	designs := append([]zcache.DesignPoint{zcache.BaselineDesign()}, zcache.Fig4Designs()...)
	var ws []workloads.Workload
	for _, n := range benchSuiteWorkloads {
		w, ok := workloads.ByName(n)
		if !ok {
			return fmt.Errorf("unknown workload %q", n)
		}
		ws = append(ws, w)
	}

	exact := zcache.NewExperiment(preset)
	start := time.Now()
	for _, w := range ws {
		for _, d := range designs {
			for _, lk := range suiteLookups {
				if _, err := exact.Run(w, d, pol, lk); err != nil {
					return err
				}
			}
		}
	}
	exactWall := time.Since(start)

	sampled := zcache.NewExperiment(preset)
	sampled.Sampled = &sample.Spec{}
	start = time.Now()
	serial := map[string]zcache.RunResult{}
	for _, w := range ws {
		for _, d := range designs {
			for _, lk := range suiteLookups {
				r, err := sampled.Run(w, d, pol, lk)
				if err != nil {
					return err
				}
				if lk == energy.Serial {
					serial[w.Name+"/"+d.Label] = r
				}
			}
		}
	}
	sampledWall := time.Since(start)

	var maxErr float64
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
			r := serial[w.Name+"/"+d.Label]
			if full.Counts.L2Accesses == 0 {
				continue
			}
			fm := float64(full.Counts.L2Misses) / float64(full.Counts.L2Accesses)
			sm := 0.0
			if r.Metrics.Counts.L2Accesses > 0 {
				sm = float64(r.Metrics.Counts.L2Misses) / float64(r.Metrics.Counts.L2Accesses)
			}
			if fm == 0 {
				continue
			}
			rel := (sm - fm) / fm
			if rel < 0 {
				rel = -rel
			}
			if rel > maxErr {
				maxErr = rel
			}
		}
	}

	spec := sample.Spec{}.Normalized()
	rep.SampledSuite.Intervals = spec.Intervals
	rep.SampledSuite.Clusters = spec.Clusters
	rep.SampledSuite.Cells = len(ws) * len(designs) * len(suiteLookups)
	rep.SampledSuite.WallNs = sampledWall.Nanoseconds()
	rep.SampledSuite.ExactWallNs = exactWall.Nanoseconds()
	rep.SampledSuite.SpeedupVsExact = float64(exactWall) / float64(sampledWall)
	rep.SampledSuite.MaxRelErr = maxErr
	return nil
}

func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	out := fs.String("out", "BENCH_kernel.json", "output file ('-' for stdout)")
	presetFlag := fs.String("preset", "test", "cold-suite preset: test | quick | full")
	policyFlag := fs.String("policy", "lru", "cold-suite replacement policy")
	baselineNs := fs.Int64("baseline-ns", 0, "cold-suite wall time of the comparison build, for the speedup field")
	checkAllocs := fs.Bool("check-allocs", true, "fail when a steady-state kernel allocates")
	var pf prof.Flags
	pf.Register(fs)
	fs.Parse(args)

	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	preset, err := parsePreset(*presetFlag)
	if err != nil {
		return err
	}
	pol, err := sim.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}

	var rep benchReport
	rep.Schema = 3
	rep.Go = runtime.Version()
	for _, spec := range kernelSpecs() {
		res, err := measureKernel(spec)
		if err != nil {
			return err
		}
		log.Printf("kernel %-12s %8.1f ns/access  %.0f allocs/access  missrate %.3f",
			res.Name, res.NsPerAccess, res.AllocsPerAccess, res.MissRate)
		if *checkAllocs && res.AllocsPerAccess != 0 {
			return fmt.Errorf("kernel %s allocates %.2f objects/access in steady state, want 0",
				res.Name, res.AllocsPerAccess)
		}
		rep.Kernels = append(rep.Kernels, res)
	}

	// Cold-suite leg: the full figure-4 matrix with no result store, the
	// wall time the figure benchmarks call the "cold" leg.
	start := time.Now()
	e := zcache.NewExperiment(preset) // no store: every cell computes cold
	if _, err := e.Fig4(context.Background(), benchSuiteWorkloads, pol); err != nil {
		return err
	}
	wall := time.Since(start)
	rep.ColdSuite.Preset = *presetFlag
	rep.ColdSuite.Policy = *policyFlag
	rep.ColdSuite.Workloads = benchSuiteWorkloads
	rep.ColdSuite.WallNs = wall.Nanoseconds()
	if *baselineNs > 0 {
		rep.ColdSuite.BaselineWallNs = *baselineNs
		rep.ColdSuite.Speedup = float64(*baselineNs) / float64(wall.Nanoseconds())
	}
	log.Printf("cold suite (%s, %s, %d workloads): %s", *presetFlag, *policyFlag,
		len(benchSuiteWorkloads), wall.Round(time.Millisecond))

	// Sampled-suite leg (schema 3): the Fig. 4 ∪ Fig. 5 cell set, exact
	// execution-driven vs sampled, both cold, plus worst-case miss-ratio
	// error vs full-stream replay. Skipped for OPT (not sampleable).
	if pol != sim.PolicyOPT {
		if err := measureSampledSuite(&rep, preset, pol); err != nil {
			return err
		}
		log.Printf("sampled suite (%d cells): exact %s, sampled %s, speedup %.2fx, max rel err %.3f%%",
			rep.SampledSuite.Cells,
			time.Duration(rep.SampledSuite.ExactWallNs).Round(time.Millisecond),
			time.Duration(rep.SampledSuite.WallNs).Round(time.Millisecond),
			rep.SampledSuite.SpeedupVsExact, 100*rep.SampledSuite.MaxRelErr)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", *out)
	return nil
}
