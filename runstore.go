package zcache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"zcache/internal/energy"
	"zcache/internal/runlab"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/trace"
	"zcache/internal/workloads"
)

// DefaultStoreDir is where `runlab run` keeps cached cells.
const DefaultStoreDir = "results/store"

// AttachStore opens (creating if needed) the runlab result store at dir
// and routes this experiment's matrix runs through it. Returns the store
// for status inspection; tune worker count, quarantine or progress
// reporting via the Lab field.
func (e *Experiment) AttachStore(dir string) (*runlab.Store, error) {
	st, err := runlab.Open(dir)
	if err != nil {
		return nil, err
	}
	e.Lab.Store = st
	return st, nil
}

// cellKey builds the content address of one matrix cell from the values
// the cell is computed from: its sim.Config (as Run builds it), the energy
// model evaluate prices it with, its workload's definition and, for a
// sampled cell, the normalized sampling spec (so every spelling of the
// defaults addresses the same cells). A change to any of them moves the
// key by construction; only a change to the code that computes a cell
// needs a runlab.SchemaVersion bump.
func (e *Experiment) cellKey(c MatrixCell) runlab.CellKey {
	return e.keyOf(c, e.Config(c.Design, c.Policy, c.Lookup), energy.NewSystemModel())
}

// keyOf is cellKey over a given configuration and energy model.
func (e *Experiment) keyOf(c MatrixCell, cfg sim.Config, model *energy.SystemModel) runlab.CellKey {
	cfg.Check = false // the invariant checker does not alter results
	var spec *sample.Spec
	if e.Sampled != nil {
		s := e.Sampled.Normalized()
		spec = &s
	}
	inputs, err := json.Marshal(struct {
		Config   sim.Config
		Energy   *energy.SystemModel
		Workload string
		Sampled  *sample.Spec `json:",omitempty"`
	}{cfg, model, c.Workload.Definition(), spec})
	if err != nil {
		panic("zcache: encode cell inputs: " + err.Error()) // numbers, strings and bools only
	}
	return runlab.CellKey{Schema: runlab.SchemaVersion, Preset: e.Preset.Name,
		Workload: c.Workload.Name, Design: c.Design.Label, Sampled: spec != nil, Inputs: inputs}
}

// RunMatrix executes cells on Lab's bounded worker pool and returns results
// in cell order. Each cell runs once. By default the first failure cancels
// the context and aborts outstanding cells (cells already running complete;
// queued cells never start); with Lab.Quarantine set, failing cells are set
// aside instead and the run finishes, returning partial results plus a
// *MatrixError naming the missing cells. Worker panics (including invariant
// violations from -check mode) are recovered into cell errors either way.
// With a store attached (AttachStore), cells are served from it where
// possible and computed cells are checkpointed, making the whole matrix
// resumable.
//
// Cells are dispatched round-robin over workloads (each workload's first
// cell, then each one's second, …): a workload's capture, sampling plan and
// tape are built once, by the first of its cells to run, and a worker that
// took a second cell of the same workload would block until they are done.
// Results come back in cell order all the same.
//
// A workload's exact, non-OPT cells that are to be computed replay one tape
// (tapeTable): the first records it, and the last to finish drops it. When
// there are such cells, the round-robin goes inside windows of as many
// workloads as Lab has workers, which keeps at most 2 × workers tapes alive
// at once.
func (e *Experiment) RunMatrix(ctx context.Context, cells []MatrixCell) ([]RunResult, error) {
	fps := make([]runlab.Fingerprint, len(cells))
	keys := make([]runlab.CellKey, len(cells))
	tapes := &tapeTable{e: e, left: map[string]int{}}
	taped := make([]bool, len(cells))
	for i, c := range cells {
		keys[i] = e.cellKey(c)
		fps[i] = keys[i].Fingerprint()
		if e.Sampled == nil && c.Policy != PolicyOPT && !e.served(fps[i]) {
			taped[i] = true
			tapes.left[c.Workload.Name]++
		}
	}
	window := len(cells) // with no tape to bound, one window holds every workload
	if len(tapes.left) > 0 {
		window = e.Lab.EffectiveWorkers()
	}
	order := roundRobin(cells, window) // order[j] is the cell dispatched j-th
	dispatched := make([]runlab.CellKey, len(cells))
	for j, i := range order {
		dispatched[j] = keys[i]
	}
	raws, _, err := e.Lab.Run(ctx, dispatched, func(j int, _ runlab.CellKey) (any, error) {
		i := order[j]
		if !taped[i] {
			return e.run(cells[i], fps[i], nil)
		}
		defer tapes.release(cells[i].Workload.Name)
		return e.run(cells[i], fps[i], tapes)
	})
	var qerr *runlab.QuarantineError
	if err != nil && !errors.As(err, &qerr) {
		return nil, err
	}
	reasons := map[int]string{}
	if qerr != nil {
		for _, ce := range qerr.Cells {
			reasons[order[ce.Index]] = ce.Err.Error()
		}
	}
	out := make([]RunResult, len(cells))
	var missing []MissingCell
	for i, j := range dispatchedAt(order) {
		if raws[j] == nil {
			c := cells[i]
			missing = append(missing, MissingCell{Index: i, Workload: c.Workload.Name,
				Design: c.Design.Label, Policy: c.Policy, Lookup: c.Lookup, Reason: reasons[i]})
			continue
		}
		if err := json.Unmarshal(raws[j], &out[i]); err != nil {
			return nil, fmt.Errorf("zcache: decode cached cell %s: %w", fps[i], err)
		}
	}
	if len(missing) > 0 {
		return out, &MatrixError{Missing: missing}
	}
	return out, nil
}

// served reports whether the cell with fingerprint fp needs no simulation:
// the attached store or this Experiment already holds its result.
func (e *Experiment) served(fp runlab.Fingerprint) bool {
	if st := e.Lab.Store; st != nil {
		if _, ok := st.Get(fp); ok {
			return true
		}
	}
	_, ok := e.done.get(fp)
	return ok
}

// tapeTable holds one RunMatrix call's tapes. A workload's tape is, per
// core, the exact prefix of its access stream a sim.System consumes
// (sim.RecordTape); it does not depend on the design, policy or lookup, so
// every execution-driven cell of the workload can replay it.
type tapeTable struct {
	e     *Experiment
	tapes memo[string, [][]trace.Access]
	mu    sync.Mutex
	left  map[string]int // cells of each workload still to replay its tape
}

// generators returns trace.Replay generators over w's tape, recording the
// tape first if no cell has.
func (t *tapeTable) generators(w workloads.Workload) ([]trace.Generator, error) {
	tapes, err := t.tapes.get(w.Name, func() ([][]trace.Access, error) {
		if t.e.onTape != nil {
			t.e.onTape(+1)
		}
		gens, err := t.e.generators(w)
		if err != nil {
			return nil, err
		}
		cfg := t.e.streamConfig()
		tapes := make([][]trace.Access, len(gens))
		for i, g := range gens {
			tapes[i] = sim.RecordTape(cfg, g)
		}
		return tapes, nil
	})
	if err != nil {
		return nil, err
	}
	gens := make([]trace.Generator, len(tapes))
	for i, tape := range tapes {
		gens[i] = trace.NewReplay(w.Name, tape)
	}
	return gens, nil
}

// release marks one of the workload's cells finished, dropping the tape
// after the last.
func (t *tapeTable) release(workload string) {
	t.mu.Lock()
	t.left[workload]--
	last := t.left[workload] == 0
	t.mu.Unlock()
	if last && t.tapes.forget(workload) && t.e.onTape != nil {
		t.e.onTape(-1)
	}
}

// roundRobin orders cell indices round-robin over workloads, in order of
// first appearance, keeping cell order within each workload. It goes
// window workloads at a time: every cell of one window is dispatched
// before any of the next.
func roundRobin(cells []MatrixCell, window int) []int {
	var rows [][]int
	row := map[string]int{}
	for i, c := range cells {
		r, ok := row[c.Workload.Name]
		if !ok {
			r = len(rows)
			row[c.Workload.Name] = r
			rows = append(rows, nil)
		}
		rows[r] = append(rows[r], i)
	}
	order := make([]int, 0, len(cells))
	for lo := 0; lo < len(rows); lo += window {
		win := rows[lo:min(lo+window, len(rows))]
		for k, more := 0, true; more; k++ {
			more = false
			for _, r := range win {
				if k < len(r) {
					order = append(order, r[k])
					more = true
				}
			}
		}
	}
	return order
}

// dispatchedAt inverts a dispatch order: the result's i-th entry is the
// position at which cell i was dispatched.
func dispatchedAt(order []int) []int {
	at := make([]int, len(order))
	for j, i := range order {
		at[i] = j
	}
	return at
}
