// Benchmarks regenerating every table and figure of the paper's evaluation,
// one benchmark per artifact. These run reduced presets so `go test -bench`
// stays tractable; cmd/runlab's run, assoc, and cost verbs produce the
// full-suite versions (EXPERIMENTS.md records full-run numbers).
//
// Custom metrics attached via b.ReportMetric carry the reproduced result
// (ratios, KS distances) so a bench run doubles as a regression check on
// the shape of each result.
package zcache

import (
	"context"
	"testing"
	"time"

	"zcache/internal/energy"
	"zcache/internal/sim"
)

// benchWorkloads is the reduced suite used by the figure benches: two
// low-miss, two L2-hit-heavy, and four miss-intensive workloads spanning
// the §VI-C classes.
var benchWorkloads = []string{
	"blackscholes", "gamess", "ammp", "canneal",
	"cactusADM", "mcf", "libquantum", "wupwise",
}

// BenchmarkTableII regenerates Table II (cache timing/area/power design
// space) and reports the headline serial 32-way/4-way hit-energy ratio.
func BenchmarkTableII(b *testing.B) {
	m := energy.NewModel()
	var rows []energy.TableIIRow
	for i := 0; i < b.N; i++ {
		rows = energy.TableII(m)
	}
	var e4, e32 float64
	for _, r := range rows {
		if r.Label == "SA-4 serial" {
			e4 = r.HitEnergyNJ
		}
		if r.Label == "SA-32 serial" {
			e32 = r.HitEnergyNJ
		}
	}
	b.ReportMetric(e32/e4, "hitE32w/4w")
}

// BenchmarkFig2 regenerates the uniformity-assumption CDFs (Fig. 2) and
// reports the §IV-B rarity value P(e <= 0.4) for n = 16.
func BenchmarkFig2(b *testing.B) {
	var d Distribution
	for i := 0; i < b.N; i++ {
		for _, n := range []int{4, 8, 16, 64} {
			d = UniformDistribution(n, 100)
			_ = d
		}
	}
	d16 := UniformDistribution(16, 100)
	b.ReportMetric(d16.CDF[39]*1e6, "P(e<=0.4|n=16)x1e-6")
}

// BenchmarkFig2Validation runs the §IV-B random-candidates experiment that
// anchors Fig. 2's analytical curves and reports the KS distance to x^n.
func BenchmarkFig2Validation(b *testing.B) {
	var ks float64
	for i := 0; i < b.N; i++ {
		const blocks, n = 1024, 16
		pol, err := PolicyLRU.New(blocks, 1)
		if err != nil {
			b.Fatal(err)
		}
		m, err := Instrument(pol, blocks, 0)
		if err != nil {
			b.Fatal(err)
		}
		c, err := NewWithPolicy(Config{
			CapacityBytes: blocks * 64, LineBytes: 64, Ways: 1,
			Design: DesignRandomCandidates, Candidates: n, Seed: 11,
		}, m)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := NewZipfGenerator(0, blocks*64*8, 64, 0.7, 0, 0.2, 42)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 400000; j++ {
			a, _ := gen.Next()
			c.Access(a.Addr, a.Write)
		}
		ks, err = KSDistance(m.Measured("rc"), UniformDistribution(n, 100))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ks, "KSvsUniform")
}

// fig3Bench measures one Fig. 3 panel on a canneal-class stream and
// reports the KS distance to the uniformity curve.
func fig3Bench(b *testing.B, design Config) {
	var ks float64
	for i := 0; i < b.N; i++ {
		e := NewExperiment(TestPreset())
		cases, err := e.Fig3([]Config{design}, []string{"canneal"})
		if err != nil {
			b.Fatal(err)
		}
		ks = cases[0].KSvsUniform
	}
	b.ReportMetric(ks, "KSvsUniform")
}

// BenchmarkFig3a: set-associative (bit-selected), 16 ways.
func BenchmarkFig3a(b *testing.B) {
	fig3Bench(b, Config{Design: DesignSetAssociative, Ways: 16})
}

// BenchmarkFig3b: set-associative with H3 hashing, 16 ways.
func BenchmarkFig3b(b *testing.B) {
	fig3Bench(b, Config{Design: DesignSetAssociativeHashed, Ways: 16})
}

// BenchmarkFig3c: skew-associative, 4 ways.
func BenchmarkFig3c(b *testing.B) {
	fig3Bench(b, Config{Design: DesignZCache, Ways: 4, WalkLevels: 1})
}

// BenchmarkFig3d: 4-way zcache, 2-level walk (16 candidates).
func BenchmarkFig3d(b *testing.B) {
	fig3Bench(b, Config{Design: DesignZCache, Ways: 4, WalkLevels: 2})
}

// fig4Bench runs the Fig. 4 study over the reduced workload set and reports
// the Z4/52 median MPKI and IPC improvements.
func fig4Bench(b *testing.B, pol PolicyKind) {
	var lines []Fig4Line
	for i := 0; i < b.N; i++ {
		e := NewExperiment(TestPreset())
		var err error
		lines, err = e.Fig4(context.Background(), benchWorkloads, pol)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, l := range lines {
		if l.Design.Label == "Z4/52" {
			n := len(l.MPKIImprovement)
			b.ReportMetric(l.MPKIImprovement[n/2], "Z4/52-medianMPKIgain")
			b.ReportMetric(l.IPCImprovement[n/2], "Z4/52-medianIPCgain")
			b.ReportMetric(l.IPCImprovement[n-1], "Z4/52-maxIPCgain")
		}
	}
}

// BenchmarkFig4OPT regenerates Fig. 4a (OPT replacement, trace-driven).
func BenchmarkFig4OPT(b *testing.B) { fig4Bench(b, PolicyOPT) }

// BenchmarkFig4LRU regenerates Fig. 4b (bucketed LRU, execution-driven).
func BenchmarkFig4LRU(b *testing.B) { fig4Bench(b, PolicyBucketedLRU) }

// BenchmarkReplaySetAssoc times the trace-driven replay of the benchmark
// workloads' captured L2 streams through the wide hashed set-associative
// designs of Fig. 4 under full LRU, where a probe and a victim selection
// each read all W slots of a set, and reports the time per L2 reference.
func BenchmarkReplaySetAssoc(b *testing.B) {
	e := NewExperiment(TestPreset())
	ws, err := SuiteWorkloads(benchWorkloads)
	if err != nil {
		b.Fatal(err)
	}
	var streams []*sim.L2Stream
	refs := 0
	for _, w := range ws {
		s, err := e.Capture(w)
		if err != nil {
			b.Fatal(err)
		}
		streams = append(streams, s)
		refs += len(s.Refs)
	}
	for _, ways := range []int{16, 32} {
		d := NewDesignPoint(sim.SetAssocH3, ways)
		cfg := e.Config(d, PolicyLRU, energy.Serial)
		b.Run(d.Label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range streams {
					if _, err := sim.ReplayL2(cfg, s); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*refs), "ns/ref")
		})
	}
}

// BenchmarkFig5 regenerates Fig. 5 (IPC and BIPS/W, serial vs parallel) and
// reports the Z4/52-parallel geomean gains over the serial SA-4 baseline.
func BenchmarkFig5(b *testing.B) {
	var cells []Fig5Cell
	for i := 0; i < b.N; i++ {
		e := NewExperiment(TestPreset())
		var err error
		cells, err = e.Fig5(context.Background(), benchWorkloads, PolicyBucketedLRU)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range cells {
		if c.Workload == "geomean-all" && c.Design.Label == "Z4/52" && c.Lookup == energy.Parallel {
			b.ReportMetric(c.IPCGain, "Z4/52par-IPCgain")
			b.ReportMetric(c.EffGain, "Z4/52par-BIPSWgain")
		}
	}
}

// BenchmarkBandwidth regenerates the §VI-D array-bandwidth study and
// reports the maximum demand load and the walk overhead ratio.
func BenchmarkBandwidth(b *testing.B) {
	var pts []BandwidthPoint
	for i := 0; i < b.N; i++ {
		e := NewExperiment(TestPreset())
		var err error
		pts, err = e.Bandwidth(context.Background(), benchWorkloads)
		if err != nil {
			b.Fatal(err)
		}
	}
	maxDemand, maxTag := 0.0, 0.0
	for _, p := range pts {
		if p.DemandLoad > maxDemand {
			maxDemand = p.DemandLoad
		}
		if p.TagLoad > maxTag {
			maxTag = p.TagLoad
		}
	}
	b.ReportMetric(maxDemand, "maxDemandLoad")
	b.ReportMetric(maxTag, "maxTagLoad")
}

// BenchmarkFigureSuiteWarm measures the runlab store's payoff: one cold
// Fig. 4 suite populates the store (timed separately and reported as
// cold-ms), then every iteration reruns the identical suite warm. The
// cold/warm ratio is the speedup an interrupted-and-resumed or repeated
// full figure run sees; warm iterations perform zero simulations.
func BenchmarkFigureSuiteWarm(b *testing.B) {
	dir := b.TempDir()
	runSuite := func() {
		e := NewExperiment(TestPreset())
		if _, err := e.AttachStore(dir); err != nil {
			b.Fatal(err)
		}
		if _, err := e.Fig4(context.Background(), benchWorkloads, PolicyBucketedLRU); err != nil {
			b.Fatal(err)
		}
		if p := e.Lab.Last(); p.Failed != 0 {
			b.Fatalf("failed cells: %+v", p)
		}
	}
	coldStart := time.Now()
	runSuite()
	cold := time.Since(coldStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runSuite()
	}
	warm := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(float64(cold.Milliseconds()), "cold-ms")
	if warm > 0 {
		b.ReportMetric(float64(cold)/float64(warm), "cold/warm")
	}
}

// BenchmarkMeritFigures regenerates the §III-B figures of merit.
func BenchmarkMeritFigures(b *testing.B) {
	var r, t int
	for i := 0; i < b.N; i++ {
		r = ReplacementCandidates(4, 3)
		t = WalkLatency(4, 3, 4)
	}
	b.ReportMetric(float64(r), "R(4,3)")
	b.ReportMetric(float64(t), "Twalk(4,3,Ttag=4)")
}

// BenchmarkHeadlineClaims measures the paper's §I/§VIII headline numbers on
// the reduced suite: Z4/52 vs SA-4 and vs SA-32 over the most
// miss-intensive workloads.
func BenchmarkHeadlineClaims(b *testing.B) {
	var cells []Fig5Cell
	for i := 0; i < b.N; i++ {
		e := NewExperiment(TestPreset())
		var err error
		cells, err = e.Fig5(context.Background(), benchWorkloads, PolicyBucketedLRU)
		if err != nil {
			b.Fatal(err)
		}
	}
	var z, sa32 Fig5Cell
	for _, c := range cells {
		if c.Workload == "geomean-top10" && c.Lookup == energy.Parallel {
			if c.Design.Label == "Z4/52" {
				z = c
			}
			if c.Design.Label == "SA-32" {
				sa32 = c
			}
		}
	}
	if z.IPCGain > 0 && sa32.IPCGain > 0 {
		b.ReportMetric(z.IPCGain, "Z4/52-vs-SA4-IPC")
		b.ReportMetric(z.EffGain, "Z4/52-vs-SA4-BIPSW")
		b.ReportMetric(z.IPCGain/sa32.IPCGain, "Z4/52-vs-SA32-IPC")
		b.ReportMetric(z.EffGain/sa32.EffGain, "Z4/52-vs-SA32-BIPSW")
	}
}

// BenchmarkAliasThrashMissRate races bit-selected and hashed set
// associativity, skew and the zcache on a conflict-prone workload at equal
// capacity and reports each design's miss rate.
func BenchmarkAliasThrashMissRate(b *testing.B) {
	const capacity = 256 << 10
	cases := []struct {
		name string
		cfg  Config
	}{
		{"SA4-bitsel", Config{CapacityBytes: capacity, LineBytes: 64, Ways: 4, Design: DesignSetAssociative}},
		{"SA4-h3", Config{CapacityBytes: capacity, LineBytes: 64, Ways: 4, Design: DesignSetAssociativeHashed}},
		{"skew-4", Config{CapacityBytes: capacity, LineBytes: 64, Ways: 4, Design: DesignZCache, WalkLevels: 1}},
		{"Z4/16", Config{CapacityBytes: capacity, LineBytes: 64, Ways: 4, Design: DesignZCache, WalkLevels: 2}},
		{"Z4/52", Config{CapacityBytes: capacity, LineBytes: 64, Ways: 4, Design: DesignZCache, WalkLevels: 3}},
	}
	for _, cse := range cases {
		b.Run(cse.name, func(b *testing.B) {
			cfg := cse.cfg
			cfg.Policy = PolicyLRU
			cfg.Seed = 13
			c, err := New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Alias thrash + reuse: 96 hot lines that all collide in
			// one bit-selected set (stride = set count), cycled, over a
			// zipf background that fits comfortably. Hashing, skewing,
			// and walks disperse the aliases; bit selection cannot.
			aliased := make([]Access, 0, 96)
			for k := uint64(0); k < 96; k++ {
				aliased = append(aliased, Access{Addr: k * 1024 * 64})
			}
			hot := NewReplayGenerator("alias", aliased)
			zipf, err := NewZipfGenerator(1<<30, capacity/2, 64, 0.8, 0, 0.2, 5)
			if err != nil {
				b.Fatal(err)
			}
			gen, err := NewMixedGenerator("blend", []Generator{&cyclic{hot}, zipf}, []float64{1, 1}, 7)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, _ := gen.Next()
				c.Access(a.Addr, a.Write)
			}
			b.StopTimer()
			st := c.Stats()
			if st.Accesses > 0 {
				b.ReportMetric(float64(st.Misses)/float64(st.Accesses), "missrate")
			}
		})
	}
}

// cyclic restarts a finite generator forever.
type cyclic struct{ inner Generator }

func (c *cyclic) Next() (Access, bool) {
	a, ok := c.inner.Next()
	if !ok {
		c.inner.Reset()
		a, ok = c.inner.Next()
	}
	return a, ok
}
func (c *cyclic) Reset()       { c.inner.Reset() }
func (c *cyclic) Name() string { return "cyclic[" + c.inner.Name() + "]" }

// BenchmarkAntiLRUPathology reproduces §IV's criticism of conflict misses
// as an associativity proxy: a cyclic scan at 1.5x capacity is anti-LRU, so
// designs that approximate global LRU *better* (more candidates) miss
// *more*. Under LRU the zcache's higher associativity faithfully amplifies
// the policy's pathology — associativity and replacement quality are
// orthogonal axes, which is the §II separation this repository preserves.
func BenchmarkAntiLRUPathology(b *testing.B) {
	const capacity = 256 << 10
	for _, cse := range []struct {
		name string
		cfg  Config
	}{
		{"skew-4", Config{CapacityBytes: capacity, LineBytes: 64, Ways: 4, Design: DesignZCache, WalkLevels: 1}},
		{"Z4/52", Config{CapacityBytes: capacity, LineBytes: 64, Ways: 4, Design: DesignZCache, WalkLevels: 3}},
	} {
		for _, pk := range []PolicyKind{PolicyLRU, PolicySRRIP} {
			b.Run(cse.name+"/"+pk.String(), func(b *testing.B) {
				cfg := cse.cfg
				cfg.Policy = pk
				cfg.Seed = 13
				c, err := New(cfg)
				if err != nil {
					b.Fatal(err)
				}
				gen, err := NewStridedGenerator(0, 64, capacity*3/2, 0, 0, 3)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a, _ := gen.Next()
					c.Access(a.Addr, a.Write)
				}
				b.StopTimer()
				st := c.Stats()
				if st.Accesses > 0 {
					b.ReportMetric(float64(st.Misses)/float64(st.Accesses), "missrate")
				}
			})
		}
	}
}

// BenchmarkPolicyAblation holds the array fixed (Z4/52) and sweeps the
// replacement policy, the separation of concerns §II closes on: the array
// supplies candidates, the policy ranks them.
func BenchmarkPolicyAblation(b *testing.B) {
	for _, pk := range []PolicyKind{PolicyLRU, PolicyBucketedLRU, PolicyRandom, PolicyLFU, PolicySRRIP, PolicyDRRIP} {
		b.Run(pk.String(), func(b *testing.B) {
			const capacity = 512 << 10
			c, err := New(Config{
				CapacityBytes: capacity, LineBytes: 64, Ways: 4,
				Design: DesignZCache, WalkLevels: 3, Policy: pk, Seed: 21,
			})
			if err != nil {
				b.Fatal(err)
			}
			gen, err := NewZipfGenerator(0, capacity*2, 64, 0.8, 0, 0.25, 9)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a, _ := gen.Next()
				c.Access(a.Addr, a.Write)
			}
			b.StopTimer()
			st := c.Stats()
			if st.Accesses > 0 {
				b.ReportMetric(float64(st.Misses)/float64(st.Accesses), "missrate")
			}
		})
	}
}
