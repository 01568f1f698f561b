package zcache

// End-to-end robustness tests: invariant checking through the public
// Experiment facade, and graceful degradation (quarantine → partial
// results + *MatrixError → clean recovery on rerun).

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"zcache/internal/failpoint"
)

// TestFig4CheckModeCleanAndIdentical: running the Fig. 4 matrix with
// simulator invariant checks enabled must neither trip a violation nor
// change a single number.
func TestFig4CheckModeCleanAndIdentical(t *testing.T) {
	names := []string{"canneal", "gamess", "mcf"}
	run := func(check bool) []Fig4Line {
		e := NewExperiment(TestPreset())
		e.Check = check
		lines, err := e.Fig4(context.Background(), names, PolicyLRU)
		if err != nil {
			t.Fatal(err)
		}
		return lines
	}
	plain, checked := run(false), run(true)
	if !reflect.DeepEqual(plain, checked) {
		t.Fatal("check mode changed Fig. 4 results")
	}
}

// TestRunMatrixQuarantineProducesPartialMatrixError: with faults injected
// into the lab compute path and Quarantine set, a figure run returns a
// *MatrixError naming exactly the lost cells; once the faults stop, a
// rerun over the same store completes and matches a fault-free run.
func TestRunMatrixQuarantineProducesPartialMatrixError(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	cells := storeTestCells(t)

	e := NewExperiment(TestPreset())
	e.Lab.Quarantine = true
	if _, err := e.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable("runlab/compute", failpoint.Error, 1, 2) // first two cells fail persistently
	partial, err := e.RunMatrix(context.Background(), cells)
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want *MatrixError", err)
	}
	if len(merr.Missing) != 2 {
		t.Fatalf("missing %d cells, want 2 (the failpoint budget)", len(merr.Missing))
	}
	for _, m := range merr.Missing {
		if m.Workload == "" || !strings.Contains(m.Reason, "failpoint") {
			t.Errorf("missing-cell annotation incomplete: %+v", m)
		}
		if present(partial[m.Index]) {
			t.Errorf("cell %d is both missing and present", m.Index)
		}
	}
	healthy := 0
	for i := range partial {
		if present(partial[i]) {
			healthy++
		}
	}
	if healthy != len(cells)-2 {
		t.Fatalf("%d healthy cells in partial result, want %d", healthy, len(cells)-2)
	}

	// Faults stop; the rerun backfills the quarantined cells and must be
	// identical to a never-faulted run.
	failpoint.Reset()
	e2 := NewExperiment(TestPreset())
	if _, err := e2.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	recovered, err := e2.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	e3 := NewExperiment(TestPreset())
	reference, err := e3.RunMatrix(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if !reflect.DeepEqual(recovered[i].Metrics, reference[i].Metrics) {
			t.Fatalf("cell %d: recovered result differs from fault-free run", i)
		}
	}
}

// TestFig4PartialAfterQuarantine: the figure builders degrade gracefully,
// returning the workloads they can rank plus the MatrixError, instead of
// nothing.
func TestFig4PartialAfterQuarantine(t *testing.T) {
	defer failpoint.Reset()
	names := []string{"canneal", "gamess", "mcf"}
	e := NewExperiment(TestPreset())
	e.Lab.Quarantine = true
	if _, err := e.AttachStore(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	failpoint.Enable("runlab/compute", failpoint.Error, 1, 1)
	lines, err := e.Fig4(context.Background(), names, PolicyLRU)
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want *MatrixError", err)
	}
	if len(merr.Missing) != 1 {
		t.Fatalf("missing %d cells, want 1", len(merr.Missing))
	}
	if len(lines) == 0 {
		t.Fatal("partial Fig. 4 rendered no lines at all")
	}
	for _, l := range lines {
		// One lost cell can cost at most one workload per line (two when
		// the baseline cell itself is the loss).
		if len(l.IPCImprovement) < len(names)-1 {
			t.Errorf("%s: %d points, want >= %d", l.Design.Label, len(l.IPCImprovement), len(names)-1)
		}
	}
}

// TestRunMatrixQuarantineWithoutStore covers the in-process path (no store
// attached): a panicking cell is recovered, reported in the MatrixError,
// and the rest of the matrix completes.
func TestRunMatrixQuarantineWithoutStore(t *testing.T) {
	defer failpoint.Reset()
	cells := storeTestCells(t)
	e := NewExperiment(TestPreset())
	e.Lab.Quarantine = true
	failpoint.Enable("sim/run", failpoint.Error, 1, 1)
	results, err := e.RunMatrix(context.Background(), cells)
	var merr *MatrixError
	if !errors.As(err, &merr) {
		t.Fatalf("err = %v, want *MatrixError", err)
	}
	if len(merr.Missing) != 1 {
		t.Fatalf("missing %d cells, want 1", len(merr.Missing))
	}
	healthy := 0
	for i := range results {
		if present(results[i]) {
			healthy++
		}
	}
	if healthy != len(cells)-1 {
		t.Fatalf("%d healthy cells, want %d", healthy, len(cells)-1)
	}
}
