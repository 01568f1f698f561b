package zcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/failpoint"
	"zcache/internal/runlab"
	"zcache/internal/sample"
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
// inside windows of workloads — no two workers start on the same workload
// while another in the window has cells left, and no window starts before
// the previous one is dispatched — and dispatchedAt inverts the order.
func TestRoundRobinDispatch(t *testing.T) {
	var cells []MatrixCell // 3 workloads × 2 designs, workload-major
	for _, name := range []string{"canneal", "gamess", "mcf"} {
		w, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("unknown workload %s", name)
		}
		for _, d := range []DesignPoint{BaselineDesign(), NewDesignPoint(sim.ZCacheL3, 4)} {
			cells = append(cells, MatrixCell{Workload: w, Design: d, Policy: PolicyBucketedLRU, Lookup: energy.Serial})
		}
	}
	for _, tc := range []struct {
		window int
		want   []int
	}{
		{1, []int{0, 1, 2, 3, 4, 5}},
		{2, []int{0, 2, 1, 3, 4, 5}},
		{3, []int{0, 2, 4, 1, 3, 5}},
		{8, []int{0, 2, 4, 1, 3, 5}},
	} {
		order := roundRobin(cells, tc.window)
		if !reflect.DeepEqual(order, tc.want) {
			t.Fatalf("window %d: dispatch order %v, want %v", tc.window, order, tc.want)
		}
		for i, j := range dispatchedAt(order) {
			if order[j] != i {
				t.Fatalf("dispatchedAt(%v)[%d] = %d", order, i, j)
			}
		}
	}
}

// TestFig4TapesBounded: an 8-workload Fig. 4 records one tape per workload,
// never holds more than 2 × workers of them at once, and drops every one
// before it returns — also when a store already serves some of the cells.
func TestFig4TapesBounded(t *testing.T) {
	names := []string{"blackscholes", "gamess", "ammp", "canneal", "cactusADM", "mcf", "libquantum", "wupwise"}
	for _, workers := range []int{1, 2} {
		e := NewExperiment(TestPreset())
		e.Lab.Workers = workers
		var mu sync.Mutex
		live, peak, recorded := 0, 0, 0
		e.onTape = func(delta int) {
			mu.Lock()
			defer mu.Unlock()
			live += delta
			peak = max(peak, live)
			if delta > 0 {
				recorded++
			}
		}
		if _, err := e.Fig4(context.Background(), names, PolicyBucketedLRU); err != nil {
			t.Fatal(err)
		}
		if recorded != len(names) || peak > 2*workers || live != 0 {
			t.Fatalf("workers %d: %d tapes recorded for %d workloads, peak %d live (bound %d), %d left",
				workers, recorded, len(names), peak, 2*workers, live)
		}
	}

	// A store holding the serial cells leaves Fig. 5 only the parallel ones
	// to compute; their tapes are dropped all the same.
	dir := t.TempDir()
	e := NewExperiment(TestPreset())
	if _, err := e.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Fig4(context.Background(), names[:2], PolicyBucketedLRU); err != nil {
		t.Fatal(err)
	}
	e = NewExperiment(TestPreset())
	if _, err := e.AttachStore(dir); err != nil {
		t.Fatal(err)
	}
	live, recorded := 0, 0
	e.Lab.Workers = 1
	e.onTape = func(delta int) {
		live += delta
		if delta > 0 {
			recorded++
		}
	}
	if _, err := e.Fig5(context.Background(), names[:2], PolicyBucketedLRU); err != nil {
		t.Fatal(err)
	}
	if p := e.Lab.Last(); p.Cached != 12 || p.Computed != 12 {
		t.Fatalf("fig5 over a fig4 store: %d cached, %d computed, want 12 and 12", p.Cached, p.Computed)
	}
	if recorded != 2 || live != 0 {
		t.Fatalf("fig5 over a fig4 store: %d tapes recorded, %d left, want 2 and 0", recorded, live)
	}
}

// TestRunRemembersComputedCells: after Fig4, Run answers every one of its
// cells without simulating (the sim/run failpoint never fires), while a
// cell that failed is computed again on the next call.
func TestRunRemembersComputedCells(t *testing.T) {
	defer failpoint.Reset()
	names := []string{"canneal", "gamess"}
	e := NewExperiment(TestPreset())
	lines, err := e.Fig4(context.Background(), names, PolicyBucketedLRU)
	if err != nil {
		t.Fatal(err)
	}
	ws, err := SuiteWorkloads(names)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.Enable("sim/run", failpoint.Error, 1, 0)
	for _, w := range ws {
		base, err := e.Run(w, BaselineDesign(), PolicyBucketedLRU, energy.Serial)
		if err != nil {
			t.Fatalf("%s baseline: %v", w.Name, err)
		}
		for _, l := range lines {
			r, err := e.Run(w, l.Design, PolicyBucketedLRU, energy.Serial)
			if err != nil {
				t.Fatalf("%s/%s: %v", w.Name, l.Design.Label, err)
			}
			if !slices.Contains(l.IPCImprovement, safeRatio(r.IPC(), base.IPC())) {
				t.Fatalf("%s/%s: remembered cell is not the one Fig4 used", w.Name, l.Design.Label)
			}
		}
	}
	if n := failpoint.Fired("sim/run"); n != 0 {
		t.Fatalf("sim/run fired %d times; remembered cells were simulated again", n)
	}

	// One injected failure: the cell fails, then computes, then is remembered.
	failpoint.Reset()
	e = NewExperiment(TestPreset())
	failpoint.Enable("sim/run", failpoint.Error, 1, 1)
	if _, err := e.Run(ws[0], BaselineDesign(), PolicyBucketedLRU, energy.Serial); err == nil {
		t.Fatal("first Run succeeded with sim/run armed")
	}
	first, err := e.Run(ws[0], BaselineDesign(), PolicyBucketedLRU, energy.Serial)
	if err != nil || !present(first) || failpoint.Fired("sim/run") != 1 {
		t.Fatalf("failed cell was not computed again: %v, %+v", err, first)
	}
	failpoint.Enable("sim/run", failpoint.Error, 1, 0)
	again, err := e.Run(ws[0], BaselineDesign(), PolicyBucketedLRU, energy.Serial)
	if err != nil || !reflect.DeepEqual(first, again) {
		t.Fatalf("computed cell not remembered: %v", err)
	}
}

// TestCellKeyFoldsEveryInput walks, by reflection, every exported field of
// the values a cell is computed from: sim.Config, energy.SystemModel (its
// Cache model included) and, for sampled cells, sample.Spec. Perturbing
// any one of them must move the cell's fingerprint, except for the fields
// in neutral, which must not. A field added later is covered without
// editing this test.
func TestCellKeyFoldsEveryInput(t *testing.T) {
	neutral := map[string]string{
		"Config.Check": "the invariant checker validates a run; it does not alter results",
	}
	c := storeTestCells(t)[0]
	type inputs struct {
		cfg   sim.Config
		model *energy.SystemModel
		spec  *sample.Spec
	}
	fresh := func(sampled bool) inputs {
		in := inputs{cfg: NewExperiment(TestPreset()).Config(c.Design, c.Policy, c.Lookup), model: energy.NewSystemModel()}
		if sampled {
			spec := sample.Spec{}.Normalized()
			in.spec = &spec
		}
		return in
	}
	fingerprint := func(in inputs) runlab.Fingerprint {
		e := NewExperiment(TestPreset())
		e.Sampled = in.spec
		return e.keyOf(c, in.cfg, in.model).Fingerprint()
	}
	if got, want := NewExperiment(TestPreset()).cellKey(c).Fingerprint(), fingerprint(fresh(false)); got != want {
		t.Fatalf("cellKey %s differs from keyOf over Config and NewSystemModel %s", got, want)
	}
	roots := []struct {
		name    string
		sampled bool
		value   func(*inputs) reflect.Value
	}{
		{"Config", false, func(in *inputs) reflect.Value { return reflect.ValueOf(&in.cfg).Elem() }},
		{"SystemModel", false, func(in *inputs) reflect.Value { return reflect.ValueOf(in.model).Elem() }},
		{"Spec", true, func(in *inputs) reflect.Value { return reflect.ValueOf(in.spec).Elem() }},
	}
	seen := 0
	for _, root := range roots {
		probe := fresh(root.sampled)
		base := fingerprint(probe)
		for _, f := range leafFields(t, root.value(&probe).Type(), root.name) {
			in := fresh(root.sampled)
			perturb(t, f.path, root.value(&in).FieldByIndex(f.index))
			moved := fingerprint(in) != base
			reason, isNeutral := neutral[f.path]
			switch {
			case isNeutral && moved:
				t.Errorf("%s moves the fingerprint; it is listed as neutral: %s", f.path, reason)
			case !isNeutral && !moved:
				t.Errorf("%s does not move the fingerprint: a store would serve cells computed under its old value", f.path)
			}
			if isNeutral {
				seen++
			}
		}
	}
	if seen != len(neutral) {
		t.Errorf("the walk met %d of the %d neutral fields", seen, len(neutral))
	}
}

// schemaPins records, for each runlab.SchemaVersion, one hash of the
// simulated-result pins in force under it: goldenSimDigests and
// figureDigests. A store serves a cell whose inputs are unchanged, so code
// that changes a pinned result must also bump SchemaVersion, or stores
// filled by the old code keep serving its cells. A recorded entry is never
// edited; a re-pin adds the next version's.
var schemaPins = map[int]string{
	3: "62a79244875d2a82c08d9de839e45156eb655c22b6ea325842a42a7f226f8e94",
}

// TestSchemaVersionFollowsPins fails when either pin table is re-pinned
// without a SchemaVersion bump.
func TestSchemaVersionFollowsPins(t *testing.T) {
	h := sha256.New()
	for _, table := range []map[string]string{goldenSimDigests, figureDigests} {
		keys := make([]string, 0, len(table))
		for k := range table {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s=%s\n", k, table[k])
		}
		h.Write([]byte{0})
	}
	got, v := hex.EncodeToString(h.Sum(nil)), runlab.SchemaVersion
	want, ok := schemaPins[v]
	switch {
	case !ok:
		t.Fatalf("runlab.SchemaVersion %d has no schemaPins entry: add %d: %q", v, v, got)
	case got != want:
		t.Fatalf("goldenSimDigests or figureDigests changed under runlab.SchemaVersion %d (pins hash %s, recorded %s). "+
			"A result the code computes changed, so stores must stop serving cells the old code computed: "+
			"bump runlab.SchemaVersion to %d and add %d: %q to schemaPins", v, got, want, v+1, v+1, got)
	}
}

type leafField struct {
	path  string
	index []int
}

// leafFields lists the scalar fields of struct type typ, descending into
// struct and pointer-to-struct fields. An unexported field fails the test:
// the key's JSON encoding would skip it.
func leafFields(t *testing.T, typ reflect.Type, name string) []leafField {
	t.Helper()
	var out []leafField
	var walk func(typ reflect.Type, path string, index []int)
	walk = func(typ reflect.Type, path string, index []int) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			p, idx := path+"."+f.Name, append(slices.Clone(index), i)
			ft := f.Type
			if ft.Kind() == reflect.Pointer {
				ft = ft.Elem()
			}
			switch {
			case !f.IsExported():
				t.Errorf("%s is unexported, so the cell key does not encode it", p)
			case ft.Kind() == reflect.Struct:
				walk(ft, p, idx)
			default:
				out = append(out, leafField{p, idx})
			}
		}
	}
	walk(typ, name, nil)
	return out
}

// perturb changes a scalar field's value.
func perturb(t *testing.T, path string, v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: no perturbation for a %s field", path, v.Kind())
	}
}
