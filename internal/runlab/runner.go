package runlab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"zcache/internal/failpoint"
)

// Progress is a snapshot of a matrix run. Done == Cached + Computed.
type Progress struct {
	Total    int
	Done     int
	Cached   int
	Computed int
	// Failed counts cells that ended without a result; Quarantined is the
	// subset that a Quarantine run set aside instead of aborting.
	Failed      int
	Quarantined int
	Elapsed     time.Duration
	// CellsPerSec is the overall completion rate; ETA extrapolates it
	// over the remaining cells (0 when the rate is still unknown).
	CellsPerSec float64
	ETA         time.Duration
}

// ComputeFunc produces the result for one cell. i indexes the keys slice
// passed to Run, so callers can recover their own richer cell value. The
// returned value must be JSON-marshalable.
type ComputeFunc func(i int, key CellKey) (any, error)

// CellError is the failure of one cell: which cell, the error, and — when
// the failure was a recovered panic — the goroutine stack at the panic
// site. Unwrap exposes the underlying error, so errors.As finds
// *check.Violation (and any other typed cause) through it.
type CellError struct {
	Index int
	Key   CellKey
	Fp    Fingerprint
	Err   error
	// Stack is the panic-site stack trace, empty for ordinary errors.
	Stack string
}

func (e *CellError) Error() string {
	return fmt.Sprintf("runlab: cell %s (%s/%s) failed: %v", e.Fp, e.Key.Workload, e.Key.Design, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// QuarantineError is the run-level error a Quarantine run returns when
// some cells failed: the run finished, every other cell's result is
// committed, and Cells lists what was lost, in completion order.
type QuarantineError struct {
	Cells []*CellError
}

func (e *QuarantineError) Error() string {
	return fmt.Sprintf("runlab: %d cell(s) quarantined (run completed; see Cells for details)", len(e.Cells))
}

// panicError wraps a recovered panic value so it can travel as an error.
// When the panic value is itself an error (e.g. *check.Violation from an
// invariant check, or *failpoint.Panic from chaos injection), Unwrap
// exposes it to errors.As.
type panicError struct {
	val   any
	stack []byte
}

func (e *panicError) Error() string { return fmt.Sprintf("panic: %v", e.val) }

func (e *panicError) Unwrap() error {
	if err, ok := e.val.(error); ok {
		return err
	}
	return nil
}

// flushEvery is the checkpoint cadence: the store is flushed after every
// flushEvery computed cells, so a crash or kill loses at most that much
// work. A final flush always happens, even on error or cancellation.
const flushEvery = 16

// Runner executes cell matrices with cache lookups, bounded workers, panic
// recovery, and periodic checkpoint flushes (every flushEvery computed
// cells). A cell is a pure function of its key, so it is computed once: a
// failure is reported, never retried. The zero value runs without a store
// and fails fast.
type Runner struct {
	// Store, when non-nil, serves previously computed cells and persists
	// new ones.
	Store *Store
	// Workers bounds concurrent compute calls (<=0: GOMAXPROCS).
	Workers int
	// Label tags this run's manifest entry ("fig4/lru", ...).
	Label string
	// Quarantine sets failing cells aside and keeps going: the run
	// completes, Progress.Quarantined counts the losses, and Run returns a
	// *QuarantineError listing them. False cancels the run on the first
	// failure; completed cells are still checkpointed.
	Quarantine bool
	// OnProgress, when non-nil, is called with a snapshot after every
	// completed cell (from worker goroutines, outside runner locks).
	OnProgress func(Progress)

	mu   sync.Mutex
	last Progress
}

// Last returns the most recent progress snapshot (of the current or the
// just-finished run).
func (r *Runner) Last() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// EffectiveWorkers returns how many cells Run computes at once: Workers,
// or GOMAXPROCS when Workers <= 0.
func (r *Runner) EffectiveWorkers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes every cell, serving from the store where possible, and
// returns raw JSON results in key order. On error the returned slice
// holds the cells that did finish (nil elsewhere); everything computed
// has already been checkpointed, so re-running the same keys resumes.
// ctx stops dispatch: cells not yet started when it is cancelled never
// run. Under Quarantine a run with failing cells still completes the
// remaining cells and returns a *QuarantineError.
func (r *Runner) Run(ctx context.Context, keys []CellKey, compute ComputeFunc) ([]json.RawMessage, Progress, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := r.EffectiveWorkers()

	out := make([]json.RawMessage, len(keys))
	errs := make([]error, len(keys))

	var mu sync.Mutex
	prog := Progress{Total: len(keys)}
	sinceFlush := 0
	var quarantined []*CellError
	// note applies a progress delta under the lock, then reports the
	// snapshot outside it (OnProgress may cancel the run's context).
	note := func(update func(*Progress)) {
		mu.Lock()
		update(&prog)
		prog.Done = prog.Cached + prog.Computed
		prog.Elapsed = time.Since(start)
		if secs := prog.Elapsed.Seconds(); secs > 0 && prog.Done > 0 {
			prog.CellsPerSec = float64(prog.Done) / secs
			remaining := prog.Total - prog.Done - prog.Failed
			prog.ETA = time.Duration(float64(remaining) / prog.CellsPerSec * float64(time.Second))
		}
		snap := prog
		// Published under mu so a slower worker cannot overwrite a newer
		// snapshot with its older one.
		r.mu.Lock()
		r.last = snap
		r.mu.Unlock()
		mu.Unlock()
		if r.OnProgress != nil {
			r.OnProgress(snap)
		}
	}

	idx := make(chan int, len(keys))
	for i := range keys {
		idx <- i
	}
	close(idx)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					continue
				}
				raw, err := r.runCell(i, keys[i], compute, note)
				if err != nil {
					var ce *CellError
					if r.Quarantine && ctx.Err() == nil && errors.As(err, &ce) {
						// Set the cell aside and keep the run alive: one
						// poisoned workload must not discard the matrix.
						mu.Lock()
						quarantined = append(quarantined, ce)
						mu.Unlock()
						note(func(p *Progress) { p.Failed++; p.Quarantined++ })
						continue
					}
					errs[i] = err
					if ctx.Err() == nil {
						note(func(p *Progress) { p.Failed++ })
					}
					cancel() // the first failure aborts outstanding cells
					continue
				}
				out[i] = raw
				// Checkpoint periodically so a crash or kill loses at
				// most flushEvery cells of work.
				if r.Store != nil {
					mu.Lock()
					sinceFlush++
					flush := sinceFlush >= flushEvery
					if flush {
						sinceFlush = 0
					}
					mu.Unlock()
					if flush {
						if err := r.Store.Flush(); err != nil {
							if r.Quarantine {
								// Records stay buffered inside the store;
								// a later checkpoint or the final flush
								// writes them again (replays are idempotent).
								continue
							}
							errs[i] = err
							cancel()
						}
					}
				}
			}
		}()
	}
	wg.Wait()

	var ferr error
	if r.Store != nil {
		ferr = r.Store.Flush()
	}

	final := r.Last()
	if r.Store != nil && len(keys) > 0 {
		sampled := 0
		for _, k := range keys {
			if k.Sampled {
				sampled++
			}
		}
		entry := ManifestEntry{
			Sampled:     sampled,
			GitRev:      GitRev(),
			Label:       r.Label,
			Preset:      keys[0].Preset,
			StartedAt:   start.UTC(),
			WallSeconds: time.Since(start).Seconds(),
			Total:       final.Total,
			Cached:      final.Cached,
			Computed:    final.Computed,
			Failed:      final.Failed,
			Quarantined: final.Quarantined,
			Corrupt:     r.Store.Corrupt(),
		}
		if err := r.Store.AppendManifest(entry); err != nil && ferr == nil {
			ferr = err
		}
	}

	// Prefer the first cell failure (quarantined cells are reported
	// collectively below, not as run failures); fall back to
	// cancellation, then to flush errors.
	for _, err := range errs {
		if err != nil {
			return out, final, err
		}
	}
	if err := ctx.Err(); err != nil {
		return out, final, err
	}
	if ferr != nil {
		return out, final, ferr
	}
	if len(quarantined) > 0 {
		return out, final, &QuarantineError{Cells: quarantined}
	}
	return out, final, nil
}

// runCell serves one cell from the store or computes it, then persists
// it. A failure comes back as *CellError.
func (r *Runner) runCell(i int, key CellKey, compute ComputeFunc, note func(func(*Progress))) (json.RawMessage, error) {
	fp := key.Fingerprint()
	if r.Store != nil {
		if raw, ok := r.Store.Get(fp); ok {
			note(func(p *Progress) { p.Cached++ })
			return raw, nil
		}
	}
	raw, err := computeCell(i, key, compute)
	if err != nil {
		ce := &CellError{Index: i, Key: key, Fp: fp, Err: err}
		var pe *panicError
		if errors.As(err, &pe) {
			ce.Stack = string(pe.stack)
		}
		return nil, ce
	}
	if r.Store != nil {
		r.Store.Put(key, raw)
	}
	note(func(p *Progress) { p.Computed++ })
	return raw, nil
}

// computeCell runs one compute call with panic recovery and encodes its
// result. A recovered panic becomes a *panicError carrying the stack;
// panics whose value is an error (invariant violations, injected chaos
// panics) stay reachable through Unwrap.
func computeCell(i int, key CellKey, compute ComputeFunc) (raw json.RawMessage, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &panicError{val: rec, stack: debug.Stack()}
		}
	}()
	if err := failpoint.Inject("runlab/compute"); err != nil {
		return nil, err
	}
	v, err := compute(i, key)
	if err != nil {
		return nil, err
	}
	if raw, err = json.Marshal(v); err != nil {
		return nil, fmt.Errorf("encode result: %w", err)
	}
	return raw, nil
}
