package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// quartiles returns the first, second and third quartile of v as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method), which is
// the rule the benchmark's contract measures spread by. v needs two values.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside 0..4 at a clamped end: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the median;
// one run has none.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(v)
	return div(q3-q1, median(v))
}

type verdict string

const (
	within     verdict = "within"
	regression verdict = "regression"
	unresolved verdict = "unresolved"
)

// judge compares the runs of one metric on one workload. worse is how far
// b's median lies on the wrong side of a's, as a share of a's.
func judge(a, b []float64, d metricDef) (worse float64, v verdict) {
	ma, mb := median(a), median(b)
	sign := 1.0 // better: lower
	if d.Better == "higher" {
		sign = -1
	}
	worse = sign * div(mb-ma, ma)
	if max(spread(a), spread(b)) > d.Bound {
		// Too noisy to call, unless every run of b beats every run of a.
		aLo, aHi := minMax(a)
		bLo, bHi := minMax(b)
		if (sign > 0 && bHi < aLo) || (sign < 0 && bLo > aHi) {
			return worse, within
		}
		return worse, unresolved
	}
	if worse > d.Bound {
		return worse, regression
	}
	return worse, within
}

// readResults loads the untraced results of a file that runs appended to
// with -out, by workload.
func readResults(path string) (byWorkload map[string][]result, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	byWorkload = map[string][]result{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Traced {
			byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
		}
	}
	return byWorkload, sc.Err()
}

func values(rs []result, name string) []float64 {
	var v []float64
	for _, r := range rs {
		if mv, ok := r.Metrics[name]; ok {
			v = append(v, mv.Value)
		}
	}
	return v
}

// agreeMain compares two sets of untraced runs, A (the parent, or a first
// set) and B (the change, or a second set of the same commit), metric by
// metric against BENCHMARK.json's bounds. It returns the exit code: 1 when
// any pairing regressed or any run of B was wrong.
func agreeMain(args []string) int {
	fs := flag.NewFlagSet("agree", flag.ExitOnError)
	manifestPath := fs.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench agree [-manifest BENCHMARK.json] A.jsonl B.jsonl")
		return 2
	}
	mf, err := loadManifest(*manifestPath)
	if err == nil {
		var a, b map[string][]result
		if a, err = readResults(fs.Arg(0)); err == nil {
			if b, err = readResults(fs.Arg(1)); err == nil {
				return agree(mf, a, b)
			}
		}
	}
	fmt.Fprintln(os.Stderr, "bench agree:", err)
	return 2
}

func agree(mf *manifest, a, b map[string][]result) int {
	code := 0
	fmt.Printf("%-14s %-20s %14s %8s %3s %14s %8s %3s %8s %6s  %s\n",
		"workload", "metric", "A median", "A spread", "n", "B median", "B spread", "n", "worse", "bound", "verdict")
	for _, w := range mf.Workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Printf("%-14s missing on one side: A has %d runs, B has %d\n", w.Name, len(ra), len(rb))
			code = 1
			continue
		}
		// Two commits may be compared; two hosts may not.
		ea, eb := ra[0].Env, rb[0].Env
		ea.Commit, eb.Commit = "", ""
		if ea != eb {
			fmt.Printf("%-14s measured in different environments: %+v vs %+v\n", w.Name, ra[0].Env, rb[0].Env)
		}
		for _, r := range rb {
			if !r.Correct {
				fmt.Printf("%-14s seed %d of B: %d of %d outputs wrong\n", w.Name, r.Seed, r.Failed, r.Attempted)
				code = 1
			}
		}
		for _, d := range mf.EndToEnd {
			va, vb := values(ra, d.Name), values(rb, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-14s %-20s not reported on one side\n", w.Name, d.Name)
				code = 1
				continue
			}
			worse, v := judge(va, vb, d)
			if v == regression {
				code = 1
			}
			fmt.Printf("%-14s %-20s %14.6g %7.2f%% %3d %14.6g %7.2f%% %3d %+7.2f%% %5.0f%%  %s\n",
				w.Name, d.Name, median(va), 100*spread(va), len(va), median(vb), 100*spread(vb), len(vb), 100*worse, 100*d.Bound, v)
		}
	}
	return code
}
