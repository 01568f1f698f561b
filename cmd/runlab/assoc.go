package main

import (
	"fmt"
	"io"

	"zcache"
	"zcache/internal/stats"
)

// assoc regenerates the paper's associativity-framework figures:
//
//	runlab assoc -fig 2                 # Fig. 2: uniformity CDFs x^n, linear & semilog
//	runlab assoc -fig validate          # §IV-B: random-candidates cache vs x^n
//	runlab assoc -fig conflict          # §IV: conflict misses as an associativity proxy
//	runlab assoc -fig hash              # §IV-C: skew KS vs x^W, H3 vs SHA-1
//	runlab assoc -fig 3 -panel a|b|c|d  # Fig. 3: measured distributions of real designs
//
// Output is plain text: one row per CDF grid point, ready for plotting, plus
// a KS-distance summary quantifying the match to the uniformity assumption.
func (c *cli) assoc(args []string) error {
	sh := newShared()
	fs := c.flagSet("assoc")
	sh.register(fs, "preset")
	fig := fs.String("fig", "2", `figure: "2", "validate", "conflict", "hash", or "3"`)
	panel := fs.String("panel", "d", `Fig. 3 panel: a (set-assoc), b (set-assoc+H3), c (skew), d (zcache)`)
	if err := parse(fs, args); err != nil {
		return err
	}
	preset, err := sh.presetValue()
	if err != nil {
		return err
	}
	w := c.stdout
	switch *fig {
	case "2":
		fig2(w)
		return nil
	case "validate":
		return validate(w)
	case "3":
		return fig3(w, preset, *panel)
	case "hash":
		return hashQuality(w)
	case "conflict":
		return conflictProxy(w)
	}
	return usagef("unknown figure %q", *fig)
}

// conflictProxy demonstrates §IV's three criticisms of conflict misses as an
// associativity metric, with the streams that break it.
func conflictProxy(w io.Writer) error {
	fmt.Fprintln(w, "§IV: conflict misses as an associativity proxy, and how it fails")
	fmt.Fprintln(w)
	const capacity = 64 * 512 // 512 lines
	aliased := func() []zcache.Access {
		var out []zcache.Access
		for round := 0; round < 100; round++ {
			for k := uint64(0); k < 256; k++ {
				out = append(out, zcache.Access{Addr: k * 512 * 64})
			}
		}
		return out
	}()
	cyclic := func() []zcache.Access {
		var out []zcache.Access
		for i := 0; i < 60000; i++ {
			out = append(out, zcache.Access{Addr: uint64(i%600) * 64})
		}
		return out
	}()
	base := zcache.Config{CapacityBytes: capacity, LineBytes: 64, Policy: zcache.PolicyLRU, Seed: 1}
	dm := base
	dm.Ways, dm.Design = 1, zcache.DesignSetAssociative
	z := base
	z.Ways, z.Design, z.WalkLevels = 4, zcache.DesignZCache, 3
	sa := base
	sa.Ways, sa.Design = 4, zcache.DesignSetAssociativeHashed
	t := stats.NewTable("stream", "design", "design misses", "FA misses", "conflict misses", "negative gap")
	for _, r := range []struct {
		stream string
		accs   []zcache.Access
		cfg    zcache.Config
	}{
		{"aliased (fits cache)", aliased, dm},
		{"aliased (fits cache)", aliased, z},
		{"cyclic 1.17x capacity", cyclic, sa},
	} {
		rep, err := zcache.CompareConflictMisses(r.cfg, r.accs)
		if err != nil {
			return err
		}
		t.AddRow(r.stream, r.cfg.Label(), rep.DesignMisses, rep.FullAssocMisses, rep.ConflictMisses, rep.NegativeGap)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "\nRow 1: pure conflict misses — the proxy works (direct-mapped aliasing).")
	fmt.Fprintln(w, "Row 2: the zcache erases them with the same 4 ways.")
	fmt.Fprintln(w, "Row 3: the anti-LRU cyclic scan makes the proxy NEGATIVE — fully-")
	fmt.Fprintln(w, "associative LRU misses every access while the restricted design keeps")
	fmt.Fprintln(w, "hits. This is why §IV replaces the proxy with a distribution.")
	return nil
}

// measureKS drives an instrumented cache built from cfg with accesses
// draws of gen and returns the measured eviction distribution's sample
// count and KS distance to x^n.
func measureKS(cfg zcache.Config, pk zcache.PolicyKind, gen zcache.Generator, accesses, n int, label string) (uint64, float64, error) {
	blocks := int(cfg.CapacityBytes / cfg.LineBytes)
	pol, err := pk.New(blocks, 1)
	if err != nil {
		return 0, 0, err
	}
	m, err := zcache.Instrument(pol, blocks, 0)
	if err != nil {
		return 0, 0, err
	}
	c, err := zcache.NewWithPolicy(cfg, m)
	if err != nil {
		return 0, 0, err
	}
	for i := 0; i < accesses; i++ {
		a, _ := gen.Next()
		c.Access(a.Addr, a.Write)
	}
	d := m.Measured(label)
	ks, err := zcache.KSDistance(d, zcache.UniformDistribution(n, len(d.CDF)))
	return d.Samples, ks, err
}

// hashQuality reruns §IV-C's closing experiment: the residual deviations of
// skewed designs shrink with more ways and with better hash functions
// ("the same experiments using more complex SHA-1 hash functions instead of
// H3 yield distributions identical to the uniformity assumption").
func hashQuality(w io.Writer) error {
	fmt.Fprintln(w, "§IV-C hash quality: skew-associative KS vs x^W, H3 vs SHA-1 way hashes")
	fmt.Fprintln(w)
	t := stats.NewTable("ways", "family", "evictions", "KS vs x^W")
	for _, ways := range []int{2, 4, 8} {
		for _, fam := range []zcache.HashKind{zcache.HashH3, zcache.HashSHA1} {
			const blocks = 8192
			gen, err := zcache.NewZipfGenerator(0, blocks*64*2, 64, 0.6, 0, 0.2, 42)
			if err != nil {
				return err
			}
			name := "h3"
			if fam == zcache.HashSHA1 {
				name = "sha1"
			}
			samples, ks, err := measureKS(zcache.Config{
				CapacityBytes: blocks * 64, LineBytes: 64, Ways: ways,
				Design: zcache.DesignZCache, WalkLevels: 1, Hash: fam, Seed: 17,
			}, zcache.PolicyLRU, gen, 1200000, ways, name)
			if err != nil {
				return err
			}
			t.AddRow(ways, name, samples, ks)
		}
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "\nDeviations shrink with more ways (§IV-C). Note the reproduction twist:")
	fmt.Fprintln(w, "this H3 family constrains its low submatrix to be invertible, so a")
	fmt.Fprintln(w, "contiguous working set loads every row *exactly* evenly — better than a")
	fmt.Fprintln(w, "truly random function (SHA-1), whose Poisson row imbalance costs a few")
	fmt.Fprintln(w, "KS points at low way counts. Hardware index hashes are built this way.")
	return nil
}

// fig2 prints the analytical CDFs of Fig. 2 for n = 4, 8, 16, 64.
func fig2(w io.Writer) {
	ns := []int{4, 8, 16, 64}
	fmt.Fprintln(w, "Fig. 2: associativity CDFs under the uniformity assumption, F_A(x) = x^n")
	fmt.Fprintln(w, "x  "+"F(x) for n=4, 8, 16, 64 (use a log y-axis for the semilog view)")
	grids := make([]zcache.Distribution, len(ns))
	for i, n := range ns {
		grids[i] = zcache.UniformDistribution(n, 100)
	}
	for b := 0; b < 100; b += 2 {
		fmt.Fprintf(w, "%.2f", float64(b+1)/100)
		for i := range ns {
			fmt.Fprintf(w, "  %.3e", grids[i].CDF[b])
		}
		fmt.Fprintln(w)
	}
	// The rarity claim of §IV-B: for 16 candidates, P(e < 0.4) ≈ 1e-6.
	fmt.Fprintf(w, "\nP(e <= 0.40) with n=16: %.2e (paper: ~1e-6)\n", grids[2].CDF[39])
}

// validate runs the random-candidates cache and reports its KS distance to
// x^n for several n, under two policies (the §IV-B experimental check).
func validate(w io.Writer) error {
	fmt.Fprintln(w, "§IV-B validation: random-candidates cache vs F_A(x) = x^n")
	t := stats.NewTable("candidates", "policy", "evictions", "KS vs x^n")
	for _, n := range []int{4, 8, 16} {
		for _, pk := range []zcache.PolicyKind{zcache.PolicyLRU, zcache.PolicyLFU} {
			const blocks = 2048
			gen, err := zcache.NewZipfGenerator(0, blocks*64*8, 64, 0.7, 0, 0.2, 42)
			if err != nil {
				return err
			}
			samples, ks, err := measureKS(zcache.Config{
				CapacityBytes: blocks * 64, LineBytes: 64, Ways: 1,
				Design: zcache.DesignRandomCandidates, Candidates: n, Seed: 11,
			}, pk, gen, 800000, n, "randcand")
			if err != nil {
				return err
			}
			t.AddRow(n, pk.String(), samples, ks)
		}
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "\nKS ≈ 0 across n and policies: the derivation of §IV-B holds experimentally.")
	return nil
}

// fig3 measures the associativity distributions of real designs over the
// paper's six benchmarks.
func fig3(w io.Writer, preset zcache.Preset, panel string) error {
	var (
		designs []zcache.Config
		title   string
	)
	switch panel {
	case "a":
		designs, title = []zcache.Config{
			{Design: zcache.DesignSetAssociative, Ways: 4},
			{Design: zcache.DesignSetAssociative, Ways: 16},
		}, "set-associative (bit-selected), 4/16 ways"
	case "b":
		designs, title = []zcache.Config{
			{Design: zcache.DesignSetAssociativeHashed, Ways: 4},
			{Design: zcache.DesignSetAssociativeHashed, Ways: 16},
		}, "set-associative with H3 hashing, 4/16 ways"
	case "c":
		designs, title = []zcache.Config{
			{Design: zcache.DesignZCache, Ways: 4, WalkLevels: 1},
			{Design: zcache.DesignZCache, Ways: 16, WalkLevels: 1},
		}, "skew-associative, 4/16 ways"
	case "d":
		designs, title = []zcache.Config{
			{Design: zcache.DesignZCache, Ways: 4, WalkLevels: 2},
			{Design: zcache.DesignZCache, Ways: 4, WalkLevels: 3},
		}, "4-way zcache, 2/3-level walks (16/52 candidates)"
	default:
		return usagef("unknown panel %q", panel)
	}
	fmt.Fprintf(w, "Fig. 3%s: %s — LRU, %s preset\n\n", panel, title, preset.Name)
	cases, err := zcache.NewExperiment(preset).Fig3(designs, nil)
	if err != nil {
		return err
	}
	t := stats.NewTable("design", "workload", "n", "evictions", "KS vs x^n")
	for _, c := range cases {
		t.AddRow(c.Label, c.Workload, c.Candidates, c.Dist.Samples, c.KSvsUniform)
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w, "\nCDF grids (x, F(x)) per case:")
	for _, c := range cases {
		if c.Dist.CDF == nil {
			continue
		}
		fmt.Fprintf(w, "\n# %s %s (n=%d)\n", c.Label, c.Workload, c.Candidates)
		for b := 4; b < len(c.Dist.CDF); b += 5 {
			fmt.Fprintf(w, "%.2f %.5f\n", float64(b+1)/float64(len(c.Dist.CDF)), c.Dist.CDF[b])
		}
	}
	return nil
}
