package zcache

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/workloads"
)

// sampledTestWorkloads spans the accuracy-relevant behaviours: gamess
// (small footprint, never evicts), ammp and canneal (phase structure),
// wupwise (the historically worst-error workload).
var sampledTestWorkloads = []string{"gamess", "ammp", "canneal", "wupwise"}

// TestSampledAccuracyVsReplay is the tentpole accuracy gate: on every
// (workload, design) cell the sampled miss ratio must be within 2% of the
// full-stream replay of the same captured stream — the estimator's exact
// limit (execution-driven results differ from replay structurally; see
// DESIGN.md §13). `runlab validate-sampled` runs the same check over the
// full bench suite with wall-time bounds.
func TestSampledAccuracyVsReplay(t *testing.T) {
	designs := append([]DesignPoint{BaselineDesign()}, Fig4Designs()...)
	pol := PolicyBucketedLRU
	e := NewExperiment(TestPreset())
	e.Sampled = &sample.Spec{}

	for _, name := range sampledTestWorkloads {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		stream, err := e.Capture(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range designs {
			full, err := sim.ReplayL2(e.Config(d, pol, energy.Serial), stream)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run(w, d, pol, energy.Serial)
			if err != nil {
				t.Fatal(err)
			}
			if r.Sampled == nil {
				t.Fatalf("%s/%s: sampled cell missing its estimate", name, d.Label)
			}
			if full.Counts.L2Accesses == 0 {
				continue
			}
			fm := float64(full.Counts.L2Misses) / float64(full.Counts.L2Accesses)
			sm := r.Sampled.MissRatio
			if fm == 0 {
				if sm != 0 {
					t.Errorf("%s/%s: replay misses nothing, sampled %.4f", name, d.Label, sm)
				}
				continue
			}
			rel := (sm - fm) / fm
			if rel < 0 {
				rel = -rel
			}
			if rel > 0.02 {
				t.Errorf("%s/%s: sampled miss ratio %.4f vs replay %.4f (rel err %.2f%% > 2%%)",
					name, d.Label, sm, fm, 100*rel)
			}
		}
	}
}

// TestSampledDeterminism mirrors TestRunDeterminism for sampled cells: the
// same seed, preset, and spec must produce bit-identical plans and metrics
// across reruns and GOMAXPROCS settings, or the disjoint sampled
// fingerprints would cache schedule-dependent results.
func TestSampledDeterminism(t *testing.T) {
	cells := storeTestCells(t)
	runOnce := func() []RunResult {
		e := NewExperiment(TestPreset())
		e.Sampled = &sample.Spec{}
		res, err := e.RunMatrix(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := runOnce()
	again := runOnce()

	prev := runtime.GOMAXPROCS(4)
	wide := runOnce()
	runtime.GOMAXPROCS(1)
	serial := runOnce()
	runtime.GOMAXPROCS(prev)

	for name, got := range map[string][]RunResult{
		"rerun": again, "GOMAXPROCS=4": wide, "GOMAXPROCS=1": serial,
	} {
		for i := range ref {
			if !reflect.DeepEqual(ref[i], got[i]) {
				a, _ := json.Marshal(ref[i])
				b, _ := json.Marshal(got[i])
				t.Fatalf("%s: cell %d (%s/%s) differs:\n%s\n%s", name, i,
					cells[i].Workload.Name, cells[i].Design.Label, a, b)
			}
		}
	}

	// The plan itself (boundaries, signatures, cluster assignments) must
	// be identical across builds too — metrics equality could in principle
	// mask compensating plan differences.
	e := NewExperiment(TestPreset())
	w, _ := workloads.ByName("canneal")
	stream, err := e.Capture(w)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := sample.BuildPlan(stream, TestPreset().L2Bytes/64, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := sample.BuildPlan(stream, TestPreset().L2Bytes/64, sample.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1.Intervals, p2.Intervals) || !reflect.DeepEqual(p1.Clusters, p2.Clusters) {
		t.Fatal("plan (intervals/clusters) differs between identical builds")
	}
}

// TestSampledStoreDisjointFromExact is the no-poisoning gate: sampled
// cells must never be served from (or stored into) exact fingerprints. An
// exact run populates the store, a sampled run over the same matrix
// computes everything fresh, and a warm exact rerun still serves 100% from
// cache.
func TestSampledStoreDisjointFromExact(t *testing.T) {
	dir := t.TempDir()
	cells := storeTestCells(t)

	exact := NewExperiment(TestPreset())
	if _, err := exact.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	exactRes, err := exact.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if p := exact.Lab.Last(); p.Computed != len(cells) {
		t.Fatalf("exact cold run computed %d of %d", p.Computed, len(cells))
	}

	sampled := NewExperiment(TestPreset())
	sampled.Sampled = &sample.Spec{}
	st, err := sampled.AttachStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	sampledRes, err := sampled.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if p := sampled.Lab.Last(); p.Cached != 0 || p.Computed != len(cells) {
		t.Fatalf("sampled run after exact: cached=%d computed=%d, want 0/%d (fingerprints must be disjoint)",
			p.Cached, p.Computed, len(cells))
	}
	for i := range cells {
		if sampledRes[i].Sampled == nil {
			t.Fatalf("cell %d: sampled result lost its estimate through the store", i)
		}
		if exactRes[i].Sampled != nil {
			t.Fatalf("cell %d: exact result carries a sampled estimate", i)
		}
	}
	s, err := st.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Sampled != len(cells) || s.Cells != 2*len(cells) {
		t.Fatalf("store stats: %d sampled of %d cells, want %d of %d",
			s.Sampled, s.Cells, len(cells), 2*len(cells))
	}

	// Warm exact rerun: still zero simulations — the sampled run did not
	// overwrite or shadow any exact cell.
	exact2 := NewExperiment(TestPreset())
	if _, err := exact2.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := exact2.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if p := exact2.Lab.Last(); p.Computed != 0 || p.Cached != len(cells) {
		t.Fatalf("warm exact rerun: computed=%d cached=%d, want 0/%d", p.Computed, p.Cached, len(cells))
	}
	for i := range cells {
		if !reflect.DeepEqual(exactRes[i], warm[i]) {
			t.Fatalf("cell %d: warm exact result drifted after a sampled run", i)
		}
	}
}

// TestSampledRejectsOPT: sampled mode must refuse OPT cells loudly.
func TestSampledRejectsOPT(t *testing.T) {
	e := NewExperiment(TestPreset())
	e.Sampled = &sample.Spec{}
	w, _ := workloads.ByName("gamess")
	if _, err := e.Run(w, BaselineDesign(), PolicyOPT, energy.Serial); err == nil {
		t.Fatal("sampled OPT cell succeeded")
	}
}

// TestSampledEstimateSurvivesStore: the Estimate must round-trip through
// the store JSON so `runlab status` and figures can report error bars for
// cached sampled cells.
func TestSampledEstimateSurvivesStore(t *testing.T) {
	dir := t.TempDir()
	cells := storeTestCells(t)[:1]

	e := NewExperiment(TestPreset())
	e.Sampled = &sample.Spec{}
	if _, err := e.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	cold, err := e.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}

	e2 := NewExperiment(TestPreset())
	e2.Sampled = &sample.Spec{}
	if _, err := e2.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := e2.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if p := e2.Lab.Last(); p.Cached != 1 {
		t.Fatalf("sampled warm rerun not served from store: %+v", p)
	}
	if !reflect.DeepEqual(cold[0], warm[0]) {
		t.Fatalf("sampled cell changed through the store:\n%+v\n%+v", cold[0], warm[0])
	}
}

// BenchmarkSampledSuite measures the sampled Fig. 4 ∪ Fig. 5 suite (96
// cells: 8 workloads × 6 designs × 2 lookups, capture + plan + legs, all
// cold) — the headline wall time sampled execution buys. Compare against
// BenchmarkFig4LRU/BenchmarkFig5 for the exact-suite cost. An instrument, not
// a gate: the zero-alloc contract is pinned per reference by
// internal/sample's TestSampledHotPathZeroAllocs, where the count is
// deterministic (whole-suite allocs/op jitters a few counts with GC
// scheduling).
func BenchmarkSampledSuite(b *testing.B) {
	designs := append([]DesignPoint{BaselineDesign()}, Fig4Designs()...)
	pol := PolicyBucketedLRU
	var ws []workloads.Workload
	for _, n := range benchWorkloads {
		w, ok := workloads.ByName(n)
		if !ok {
			b.Fatalf("unknown workload %s", n)
		}
		ws = append(ws, w)
	}
	for i := 0; i < b.N; i++ {
		e := NewExperiment(TestPreset())
		e.Sampled = &sample.Spec{}
		for _, w := range ws {
			for _, d := range designs {
				for _, lk := range []energy.Lookup{energy.Serial, energy.Parallel} {
					if _, err := e.Run(w, d, pol, lk); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
}

// TestMemoBuildsEachKeyOnce: concurrent callers of one key share a single
// build and get its value and error; distinct keys build separately.
func TestMemoBuildsEachKeyOnce(t *testing.T) {
	var m memo[string, int]
	var builds atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		key := []string{"a", "bb"}[i%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.get(key, func() (int, error) {
				builds.Add(1)
				return len(key), errors.New(key)
			})
			if v != len(key) || err == nil || err.Error() != key {
				t.Errorf("get(%q) = %d, %v", key, v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 2 {
		t.Fatalf("%d builds for 2 keys", n)
	}
}

// TestMemoRemembersPanickingBuild: a build that panics leaves its key
// failed, not empty. The caller whose build panicked panics; every other
// caller, concurrent or later, gets an error that unwraps to the panic
// value. No caller ever gets the zero value with a nil error.
func TestMemoRemembersPanickingBuild(t *testing.T) {
	var m memo[string, *int]
	boom := errors.New("boom")
	var panics atomic.Int32
	var wg sync.WaitGroup
	get := func() {
		defer func() {
			if r := recover(); r != nil {
				if r != boom {
					t.Errorf("panic value %v, want %v", r, boom)
				}
				panics.Add(1)
			}
		}()
		v, err := m.get("k", func() (*int, error) { panic(boom) })
		if v != nil || !errors.Is(err, boom) {
			t.Errorf("get = (%v, %v), want (nil, an error wrapping %v)", v, err, boom)
		}
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get()
		}()
	}
	wg.Wait()
	get()
	if n := panics.Load(); n != 1 {
		t.Fatalf("%d callers panicked, want the one whose build ran", n)
	}
}
