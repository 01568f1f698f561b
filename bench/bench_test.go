package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// streamDigest hashes the first n operations of both load threads of spec.
func streamDigest(spec kvSpec, seed uint64, n int) string {
	h := sha256.New()
	rk := newRanker(spec.keys, spec.theta)
	var b [9]byte
	for t := 0; t < loadThreads; t++ {
		g := newOpGen(seed, t, rk, spec.getPermille)
		for i := 0; i < n; i++ {
			k, set := g.next()
			binary.LittleEndian.PutUint64(b[:], k)
			b[8] = 0
			if set {
				b[8] = 1
			}
			h.Write(b[:])
		}
	}
	var val [valBytes]byte
	fillValue(val[:], newKeyspace(seed).key(0))
	h.Write(val[:])
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorPinned pins the inputs: a change to the generators, the key
// derivation or the value derivation changes what every recorded number was
// measured on, and must show here first.
func TestGeneratorPinned(t *testing.T) {
	want := map[string]string{
		"serve-hot":     "311071de3221518f9f2c8b85179635d1651838d72f1720a6cb3cbe611b4c1623",
		"serve-churn":   "e61c934366a010d6b9ed593f9c0506bbe47c8aa417c13c5ac8dea763285791bd",
		"serve-cluster": "472f643ae036234e93adb67343d8f0a80d4d6a9e12d998a535418cf1daad9eef",
		"embed-aside":   "7fc8581df2f297b271ea7a44708abe0ca88d3ad6d9f27b58dccc359a59ad3126",
		"embed-persist": "7fc8581df2f297b271ea7a44708abe0ca88d3ad6d9f27b58dccc359a59ad3126", // embed-aside's stream, on purpose
	}
	for _, spec := range kvSpecs {
		got := streamDigest(spec, 1, 4096)
		if got != streamDigest(spec, 1, 4096) {
			t.Errorf("%s: equal seeds gave different streams", spec.name)
		}
		if got == streamDigest(spec, 2, 4096) {
			t.Errorf("%s: seeds 1 and 2 gave the same stream", spec.name)
		}
		if got != want[spec.name] {
			t.Errorf("%s: seed-1 stream digest %s, pinned %s", spec.name, got, want[spec.name])
		}
	}
}

// TestZipfRegime checks that each key-value workload's popularity curve puts
// it in the hit-rate regime BENCHMARK.json and README.md state for it: the
// share of draws that fall on the `capacity` most popular keys is the hit
// rate an ideal cache of that size would reach.
func TestZipfRegime(t *testing.T) {
	regime := map[string][2]float64{
		"serve-hot":     {1, 1},       // the key space fits
		"serve-churn":   {0.24, 0.26}, // uniform over 4x capacity
		"serve-cluster": {0.80, 0.92},
		"embed-aside":   {0.72, 0.88},
		"embed-persist": {0.72, 0.88},
	}
	for _, spec := range kvSpecs {
		rk := newRanker(spec.keys, spec.theta)
		r := rng{s: 42}
		const draws = 200_000
		in := 0
		for i := 0; i < draws; i++ {
			if int(rk.draw(&r)) < spec.capacity() {
				in++
			}
		}
		got, want := float64(in)/draws, regime[spec.name]
		if got < want[0] || got > want[1] {
			t.Errorf("%s: %.3f of draws fall within capacity, want %.2f..%.2f", spec.name, got, want[0], want[1])
		}
	}
	// The alias table reproduces the distribution it was built from.
	rk := newRanker(1024, 0.99)
	sum := 0.0
	for i := 1; i <= 1024; i++ {
		sum += 1 / math.Pow(float64(i), 0.99)
	}
	r := rng{s: 7}
	const draws = 400_000
	top := 0
	for i := 0; i < draws; i++ {
		if rk.draw(&r) == 0 {
			top++
		}
	}
	if got, want := float64(top)/draws, 1/sum; math.Abs(got-want) > 0.005 {
		t.Errorf("rank 0 drawn with frequency %.4f, its probability is %.4f", got, want)
	}
}

func TestWarmOrder(t *testing.T) {
	rk := newRanker(64, 0.9)
	order := warmOrder(1, rk, 16)
	if len(order) != 16 {
		t.Fatalf("warm set of %d keys, want 16", len(order))
	}
	seen := map[uint32]bool{}
	for _, rank := range order {
		if seen[rank] || rank >= 64 {
			t.Fatalf("warm set %v repeats or leaves the key space", order)
		}
		seen[rank] = true
	}
	if all := warmOrder(1, rk, 100); len(all) != 64 {
		t.Errorf("a key space that fits is loaded completely: got %d of 64", len(all))
	}
}

// TestTailPercentile: the highest percentile with at least ten samples
// beyond it.
func TestTailPercentile(t *testing.T) {
	for _, want := range []float64{0.99, 0.999} {
		for _, n := range []int{1, 10, 21, 22, 109, 110, 1099, 1100, 10999, 11000, 1 << 20} {
			got := tailPercentile(n, want)
			beyond := func(p float64) int { return n - 1 - rankOf(n, p) }
			if got > want || (got != 0.5 && beyond(got) < 10) {
				t.Errorf("tailPercentile(%d, %v) = %v with %d samples beyond it", n, want, got, beyond(got))
			}
			for _, p := range tailPercentiles {
				if p > got && p <= want && beyond(p) >= 10 {
					t.Errorf("tailPercentile(%d, %v) = %v, but %v also has %d samples beyond it", n, want, got, p, beyond(p))
				}
			}
		}
	}
	if got := tailPercentile(1<<20, 0.99); got != 0.99 {
		t.Errorf("a large sample reads its p99 at %v", got)
	}
	if got := tailPercentile(30, 0.99); got != 0.5 {
		t.Errorf("thirty samples support only the median, got %v", got)
	}
	sorted := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(sorted, 0.5); got != 6 {
		t.Errorf("median of 1..10 by nearest rank = %v, want 6", got)
	}
	if got := percentile(sorted, 0.999); got != 10 {
		t.Errorf("p999 of 1..10 = %v, want 10", got)
	}
}

// TestSpanSelfTime: self time is a span's duration minus the part of its
// interval its children cover, counting overlapping children once and
// ignoring what sticks out of the parent.
func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "burst", Start: 0, End: 100, Parent: -1},
		{Name: "queue", Start: 10, End: 30, Parent: 0},
		{Name: "read", Start: 25, End: 60, Parent: 0},  // overlaps queue by 5
		{Name: "read", Start: 90, End: 120, Parent: 0}, // sticks out by 20
		{Name: "first", Start: 30, End: 40, Parent: 2},
	}
	agg := aggregate(spans)
	if got := agg["burst"]; got.count != 1 || got.total != 100 || got.self != 100-(20+30+10) {
		t.Errorf("burst = %+v, want total 100 self 40", got)
	}
	if got := agg["read"]; got.count != 2 || got.total != 65 || got.self != 65-10 {
		t.Errorf("read = %+v, want total 65 self 55", got)
	}
	if got := agg["first"]; got.self != got.total || got.total != 10 {
		t.Errorf("first = %+v, want total = self = 10", got)
	}
	var nilRec *spanRec
	nilRec.end(nilRec.begin("x", -1, 0)) // the untraced run: records nothing, must not panic
}

// TestManifest checks BENCHMARK.json against the contract's limits and
// against the workloads the program has. That the metrics a run emits are
// exactly the declared ones is checked by run itself, so TestSmoke covers it.
func TestManifest(t *testing.T) {
	mf, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(mf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(mf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	hasSetup := false
	for _, d := range mf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better = %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	ws := allWorkloads()
	if len(mf.Workloads) != len(ws) {
		t.Fatalf("%d workloads declared, the program has %d", len(mf.Workloads), len(ws))
	}
	for i, w := range ws {
		if mf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the program", i, mf.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) || len(mf.Workloads[i].Why) == 0 || len(mf.Workloads[i].Why) > 200 {
			t.Errorf("workload %q: malformed name or why", w.name)
		}
	}
}

// TestSmoke runs every workload end to end for a fifth of a second, and one
// key-value and one simulation workload traced: the outputs must be correct
// and the metric names exactly the declared ones.
func TestSmoke(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	for _, w := range allWorkloads() {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "serve-churn" && w.name != "sim-sampled" {
				continue
			}
			res, err := run(context.Background(), options{workload: w.name, seed: 3, seconds: 0.2, trace: traced, manifest: manifestPath, spansDir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d outputs wrong", w.name, traced, res.Failed, res.Attempted)
			}
			for name, v := range res.Metrics {
				if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, name, v.Value)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.name, name, v.Value)
				}
			}
		}
	}
}

func TestGuard(t *testing.T) {
	if err := (envRecord{NProc: 1, GOMAXPROCS: 1, LoadThreads: 2}).guard(); err == nil {
		t.Error("two load threads accepted on one processor")
	}
	if err := (envRecord{NProc: 2, GOMAXPROCS: 2, LoadThreads: 2}).guard(); err != nil {
		t.Error(err)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1, 2) = %v %v %v", q1, q2, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.08}
	steady := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		d    metricDef
		want verdict
	}{
		{"same", steady, steady, lower, within},
		{"slower latency", steady, []float64{115, 116, 114, 115, 115}, lower, regression},
		{"faster latency", steady, []float64{80, 81, 79, 80, 80}, lower, within},
		{"lost throughput", steady, []float64{90, 91, 89, 90, 90}, higher, regression},
		{"within bound", steady, []float64{95, 96, 94, 95, 95}, higher, within},
		{"too noisy", steady, []float64{60, 140, 100, 80, 120}, lower, unresolved},
		{"noisy but every run better", []float64{200, 300, 250, 220, 280}, []float64{60, 140, 100, 80, 120}, lower, within},
	} {
		if _, got := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
