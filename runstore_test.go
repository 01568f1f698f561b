package zcache

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/runlab"
	"zcache/internal/sim"
	"zcache/internal/workloads"
)

// storeTestCells builds a small but representative matrix: two workloads
// across the baseline and two zcache designs.
func storeTestCells(t *testing.T) []MatrixCell {
	t.Helper()
	var cells []MatrixCell
	for _, name := range []string{"canneal", "gamess"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		for _, d := range []DesignPoint{
			BaselineDesign(),
			{Label: "Z4/16", Design: sim.ZCacheL2, Ways: 4},
			{Label: "Z4/52", Design: sim.ZCacheL3, Ways: 4},
		} {
			cells = append(cells, MatrixCell{Workload: w, Design: d, Policy: PolicyBucketedLRU, Lookup: energy.Serial})
		}
	}
	return cells
}

// TestRunMatrixWarmRerunServesFromStore is the tentpole acceptance test:
// a cold run simulates every cell, a warm rerun (fresh Experiment and
// fresh store handle, as after a process restart) simulates none, and
// both produce identical results.
func TestRunMatrixWarmRerunServesFromStore(t *testing.T) {
	dir := t.TempDir()
	cells := storeTestCells(t)

	e := NewExperiment(TestPreset())
	if _, err := e.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	cold, err := e.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	p := e.Lab.Last()
	if p.Computed != len(cells) || p.Cached != 0 {
		t.Fatalf("cold run: computed=%d cached=%d, want %d/0", p.Computed, p.Cached, len(cells))
	}

	e2 := NewExperiment(TestPreset())
	if _, err := e2.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	warm, err := e2.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	p = e2.Lab.Last()
	if p.Computed != 0 || p.Cached != len(cells) {
		t.Fatalf("warm run: computed=%d cached=%d, want 0/%d", p.Computed, p.Cached, len(cells))
	}
	for i := range cells {
		if !reflect.DeepEqual(cold[i].Metrics, warm[i].Metrics) || !reflect.DeepEqual(cold[i].Eval, warm[i].Eval) {
			t.Fatalf("cell %d: cached result differs from computed", i)
		}
	}
}

// TestRunMatrixInterruptedRunResumes kills a matrix run mid-way (context
// cancellation, as cmd/runlab does on SIGINT) and verifies the rerun
// serves every already-finished cell from the store.
func TestRunMatrixInterruptedRunResumes(t *testing.T) {
	dir := t.TempDir()
	cells := storeTestCells(t)

	e := NewExperiment(TestPreset())
	if _, err := e.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e.Lab.Workers = 1
	e.Lab.FlushEvery = 1
	e.Lab.OnProgress = func(p runlab.Progress) {
		if p.Done >= 2 {
			cancel()
		}
	}
	_, err := e.RunMatrix(ctx, cells)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	finished := e.Lab.Last().Computed
	if finished < 2 || finished >= len(cells) {
		t.Fatalf("interrupted run finished %d of %d cells", finished, len(cells))
	}

	e2 := NewExperiment(TestPreset())
	if _, err := e2.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	res, err := e2.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cells) {
		t.Fatalf("resume returned %d results", len(res))
	}
	p := e2.Lab.Last()
	if p.Cached != finished || p.Computed != len(cells)-finished {
		t.Fatalf("resume: cached=%d computed=%d, want %d/%d", p.Cached, p.Computed, finished, len(cells)-finished)
	}
}

// TestRunMatrixCancelsOutstandingCellsOnError pins the satellite fix: a
// failing cell must abort queued cells instead of running the whole
// matrix to completion first.
func TestRunMatrixCancelsOutstandingCellsOnError(t *testing.T) {
	e := NewExperiment(TestPreset())
	w, _ := workloads.ByName("gamess")
	bad := MatrixCell{Workload: w, Design: DesignPoint{Label: "bad", Design: sim.SetAssocH3, Ways: -1},
		Policy: PolicyBucketedLRU, Lookup: energy.Serial}
	cells := []MatrixCell{bad}
	for i := 0; i < 12; i++ {
		cells = append(cells, storeTestCells(t)...)
	}
	_, err := e.RunMatrix(context.Background(), cells)
	if err == nil {
		t.Fatal("matrix with an invalid cell succeeded")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("reported a cancellation casualty instead of the real failure: %v", err)
	}
}

// TestRunMatrixHonoursPreCancelledContext: no work on a dead context.
func TestRunMatrixHonoursPreCancelledContext(t *testing.T) {
	e := NewExperiment(TestPreset())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.RunMatrix(ctx, storeTestCells(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunDeterminism is the cache-safety regression test: the same seed
// and preset must produce bit-identical metrics across repeated runs and
// across GOMAXPROCS settings, or fingerprint-keyed caching would serve
// results that depend on scheduling.
func TestRunDeterminism(t *testing.T) {
	cells := storeTestCells(t)
	runOnce := func() []RunResult {
		e := NewExperiment(TestPreset())
		res, err := e.RunMatrix(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ref := runOnce()
	again := runOnce()

	prev := runtime.GOMAXPROCS(1)
	serial := runOnce()
	runtime.GOMAXPROCS(prev)

	for name, got := range map[string][]RunResult{"rerun": again, "GOMAXPROCS=1": serial} {
		for i := range ref {
			if !reflect.DeepEqual(ref[i], got[i]) {
				a, _ := json.Marshal(ref[i])
				b, _ := json.Marshal(got[i])
				t.Fatalf("%s: cell %d (%s/%s) differs:\n%s\n%s", name, i,
					cells[i].Workload.Name, cells[i].Design.Label, a, b)
			}
		}
	}
}

// TestRunResultJSONRoundTrip guards the store encoding: a decoded cell
// must equal the computed one field-for-field (encoding/json preserves
// float64 exactly), or warm reruns would silently drift.
func TestRunResultJSONRoundTrip(t *testing.T) {
	e := NewExperiment(TestPreset())
	w, _ := workloads.ByName("canneal")
	r, err := e.Run(w, BaselineDesign(), PolicyBucketedLRU, energy.Serial)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back RunResult
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, back) {
		t.Fatalf("round trip changed the result:\n%+v\n%+v", r, back)
	}
}

// TestRoundRobinDispatch: a workload-major matrix is dispatched design-major
// — no two workers start on the same workload while another has cells left —
// and dispatchedAt inverts the order.
func TestRoundRobinDispatch(t *testing.T) {
	cells := storeTestCells(t) // 2 workloads × 3 designs, workload-major
	order := roundRobin(cells)
	if want := []int{0, 3, 1, 4, 2, 5}; !reflect.DeepEqual(order, want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	for i, j := range dispatchedAt(order) {
		if order[j] != i {
			t.Fatalf("dispatchedAt(%v)[%d] = %d", order, i, j)
		}
	}
}
