package zcache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"zcache/internal/runlab"
)

// DefaultStoreDir is where `runlab run` keeps cached cells.
const DefaultStoreDir = "results/store"

// AttachStore opens (creating if needed) the runlab result store at dir
// and routes this experiment's matrix runs through it. Returns the store
// for status inspection; tune worker count, flush cadence, quarantine or
// progress reporting via the Lab field.
func (e *Experiment) AttachStore(dir string) (*runlab.Store, error) {
	return e.AttachStoreOptions(dir, runlab.Options{})
}

// AttachStoreOptions is AttachStore with explicit store durability and
// strictness options (see runlab.Options).
func (e *Experiment) AttachStoreOptions(dir string, opts runlab.Options) (*runlab.Store, error) {
	st, err := runlab.OpenWith(dir, opts)
	if err != nil {
		return nil, err
	}
	e.Lab.Store = st
	return st, nil
}

// cellKey builds the content address of one matrix cell. Every preset
// field that changes simulated behaviour is folded in, so two presets
// that differ only in name still hash apart and a resized machine can
// never serve stale cells.
func (e *Experiment) cellKey(c MatrixCell) runlab.CellKey {
	var sampled *runlab.SampledKey
	if e.Sampled != nil {
		// Fold the normalized spec so every spelling of the defaults
		// addresses the same cells; exact cells keep a nil Sampled and a
		// fingerprint byte-identical to pre-sampling builds.
		spec := e.Sampled.Normalized()
		sampled = &runlab.SampledKey{
			Intervals:   spec.Intervals,
			Clusters:    spec.Clusters,
			DEWPermille: spec.DEWPermille,
			Seed:        spec.Seed,
		}
	}
	return runlab.CellKey{
		Sampled: sampled,
		Schema:  runlab.SchemaVersion,
		Preset: runlab.PresetKey{
			Name:         e.Preset.Name,
			Cores:        e.Preset.Cores,
			L2Bytes:      e.Preset.L2Bytes,
			L2Banks:      e.Preset.L2Banks,
			Instructions: e.Preset.InstructionsPerCore,
			Warmup:       e.Preset.WarmupInstructionsPerCore,
			Seed:         e.Preset.Seed,
		},
		Workload: c.Workload.Name,
		Design:   c.Design.Label,
		DesignID: int(c.Design.Design),
		Ways:     c.Design.Ways,
		Policy:   int(c.Policy),
		Lookup:   int(c.Lookup),
	}
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
// cell, then each one's second, …): a workload's capture and sampling plan
// are built once, by the first of its cells to run, and a worker that took a
// second cell of the same workload would block until they are done. Results
// come back in cell order all the same.
func (e *Experiment) RunMatrix(ctx context.Context, cells []MatrixCell) ([]RunResult, error) {
	order := roundRobin(cells) // order[j] is the cell dispatched j-th
	keys := make([]runlab.CellKey, len(cells))
	for j, i := range order {
		keys[j] = e.cellKey(cells[i])
	}
	raws, _, err := e.Lab.Run(ctx, keys, func(j int, _ runlab.CellKey) (any, error) {
		c := cells[order[j]]
		return e.Run(c.Workload, c.Design, c.Policy, c.Lookup)
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
			return nil, fmt.Errorf("zcache: decode cached cell %s: %w", keys[j].Fingerprint(), err)
		}
	}
	if len(missing) > 0 {
		return out, &MatrixError{Missing: missing}
	}
	return out, nil
}

// roundRobin orders cell indices round-robin over workloads, in order of
// first appearance, keeping cell order within each workload.
func roundRobin(cells []MatrixCell) []int {
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
	for k := 0; len(order) < len(cells); k++ {
		for _, r := range rows {
			if k < len(r) {
				order = append(order, r[k])
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
