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

	"zcache/internal/check"
	"zcache/internal/failpoint"
	"zcache/internal/hash"
)

// Progress is a snapshot of a matrix run. Done == Cached + Computed.
type Progress struct {
	Total    int
	Done     int
	Cached   int
	Computed int
	// Failed counts cells that ended without a result; Quarantined is the
	// subset that failed persistently under FailQuarantine and was set
	// aside instead of aborting the run.
	Failed      int
	Quarantined int
	Retried     int
	Elapsed     time.Duration
	// CellsPerSec is the overall completion rate; ETA extrapolates it
	// over the remaining cells (0 when the rate is still unknown).
	CellsPerSec float64
	ETA         time.Duration
}

// ComputeFunc produces the result for one cell. i indexes the keys slice
// passed to Run, so callers can recover their own richer cell value. The
// returned value must be JSON-marshalable. In FailFast mode the context
// is cancelled once any cell fails persistently; long computations may
// honour it early.
type ComputeFunc func(ctx context.Context, i int, key CellKey) (any, error)

// FailMode selects what a persistent cell failure does to the rest of
// the run.
type FailMode int

const (
	// FailFast (the default) cancels the run on the first persistent cell
	// failure. Completed cells are still checkpointed.
	FailFast FailMode = iota
	// FailQuarantine sets persistently failing cells aside and keeps
	// going: the run completes, Progress.Quarantined counts the losses,
	// and Run returns a *QuarantineError listing them so callers can
	// degrade gracefully instead of aborting.
	FailQuarantine
)

// CellError is a persistent failure of one cell: which cell, how many
// attempts it got, the final error, and — when the failure was a
// recovered panic — the goroutine stack at the panic site. Unwrap
// exposes the underlying error, so errors.As finds *check.Violation (and
// any other typed cause) through it.
type CellError struct {
	Index    int
	Key      CellKey
	Fp       Fingerprint
	Attempts int
	Err      error
	// Stack is the panic-site stack trace, empty for ordinary errors.
	Stack string
}

func (e *CellError) Error() string {
	return fmt.Sprintf("runlab: cell %s (%s/%s) failed after %d attempt(s): %v",
		e.Fp, e.Key.Workload, e.Key.Design, e.Attempts, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

// QuarantineError is the run-level error FailQuarantine returns when
// some cells failed persistently: the run finished, every other cell's
// result is committed, and Cells lists what was lost.
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

// Runner executes cell matrices with cache lookups, bounded workers,
// retries with deterministic jittered exponential backoff, per-attempt
// deadlines, panic recovery, and periodic checkpoint flushes. The zero
// value runs without a store, fails fast, and retries once.
type Runner struct {
	// Store, when non-nil, serves previously computed cells and persists
	// new ones.
	Store *Store
	// Workers bounds concurrent compute calls (<=0: GOMAXPROCS).
	Workers int
	// FlushEvery checkpoints the store after this many computed cells
	// (<=0: 16). A final flush always happens, even on error or
	// cancellation, so completed cells survive an interrupted run.
	FlushEvery int
	// Label tags this run's manifest entry ("fig4/lru", ...).
	Label string
	// MaxAttempts bounds compute attempts per cell (<=0: 2, i.e. one
	// retry). Invariant violations (*check.Violation) are deterministic
	// and never retried.
	MaxAttempts int
	// BackoffBase is the sleep before the first retry, doubling per
	// attempt with deterministic jitter in [0.5,1.0)x derived from the
	// cell fingerprint (so reruns sleep identically). 0 retries
	// immediately, preserving the historical behaviour.
	BackoffBase time.Duration
	// BackoffMax caps the grown backoff (<=0: 30s).
	BackoffMax time.Duration
	// CellTimeout bounds each attempt (<=0: none). The attempt's context
	// is cancelled at the deadline; a compute that honours its context
	// returns context.DeadlineExceeded and is retried or quarantined
	// like any other failure.
	CellTimeout time.Duration
	// FailMode selects abort-on-first-failure (FailFast, default) or
	// quarantine-and-continue (FailQuarantine).
	FailMode FailMode
	// OnProgress, when non-nil, is called with a snapshot after every
	// completed cell (from worker goroutines, outside runner locks).
	OnProgress func(Progress)

	mu         sync.Mutex
	last       Progress
	quarantine []*CellError
}

// Last returns the most recent progress snapshot (of the current or the
// just-finished run).
func (r *Runner) Last() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last
}

// Quarantined returns the cells the current or just-finished run set
// aside (FailQuarantine mode), in completion order.
func (r *Runner) Quarantined() []*CellError {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*CellError, len(r.quarantine))
	copy(out, r.quarantine)
	return out
}

// Run executes every cell, serving from the store where possible, and
// returns raw JSON results in key order. On error the returned slice
// holds the cells that did finish (nil elsewhere); everything computed
// has already been checkpointed, so re-running the same keys resumes.
// Under FailQuarantine a run with persistent cell failures still
// completes the remaining cells and returns a *QuarantineError.
func (r *Runner) Run(ctx context.Context, keys []CellKey, compute ComputeFunc) ([]json.RawMessage, Progress, error) {
	start := time.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	flushEvery := r.FlushEvery
	if flushEvery <= 0 {
		flushEvery = 16
	}

	r.mu.Lock()
	r.quarantine = nil
	r.mu.Unlock()

	out := make([]json.RawMessage, len(keys))
	errs := make([]error, len(keys))
	quarantined := make([]bool, len(keys))

	var mu sync.Mutex
	prog := Progress{Total: len(keys)}
	sinceFlush := 0
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
					errs[i] = ctx.Err()
					continue
				}
				raw, err := r.runCell(ctx, i, keys[i], compute, note)
				if err != nil {
					errs[i] = err
					var ce *CellError
					if r.FailMode == FailQuarantine && ctx.Err() == nil && errors.As(err, &ce) {
						// Set the cell aside and keep the run alive: one
						// poisoned workload must not discard the matrix.
						quarantined[i] = true
						r.mu.Lock()
						r.quarantine = append(r.quarantine, ce)
						r.mu.Unlock()
						note(func(p *Progress) { p.Failed++; p.Quarantined++ })
						continue
					}
					if ctx.Err() == nil {
						note(func(p *Progress) { p.Failed++ })
					}
					cancel() // first persistent error aborts outstanding cells
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
							if r.FailMode == FailQuarantine {
								// Records stay buffered inside the store;
								// a later checkpoint or the final flush
								// retries them (replays are idempotent).
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
			if k.Sampled != nil {
				sampled++
			}
		}
		entry := ManifestEntry{
			Sampled:     sampled,
			GitRev:      GitRev(),
			Label:       r.Label,
			Preset:      keys[0].Preset.Name,
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

	// Prefer the first real cell failure (quarantined cells are reported
	// collectively below, not as run failures); fall back to
	// cancellation, then to flush errors.
	for i, err := range errs {
		if err == nil || quarantined[i] {
			continue
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return out, final, err
		}
	}
	if err := ctx.Err(); err != nil {
		return out, final, err
	}
	if ferr != nil {
		return out, final, ferr
	}
	if q := r.Quarantined(); len(q) > 0 {
		return out, final, &QuarantineError{Cells: q}
	}
	return out, final, nil
}

// runCell serves one cell from the store or computes it with bounded,
// backed-off attempts, then persists it. Persistent failures come back
// as *CellError.
func (r *Runner) runCell(ctx context.Context, i int, key CellKey, compute ComputeFunc, note func(func(*Progress))) (json.RawMessage, error) {
	fp := key.Fingerprint()
	if r.Store != nil {
		if raw, ok := r.Store.Get(fp); ok {
			note(func(p *Progress) { p.Cached++ })
			return raw, nil
		}
	}
	maxAttempts := r.MaxAttempts
	if maxAttempts <= 0 {
		maxAttempts = 2
	}
	var v any
	var err error
	attempts := 0
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if attempt > 1 {
			// A cancelled run must not burn another full compute on a
			// retry: bail out before the attempt, not after.
			if cerr := sleepCtx(ctx, r.backoff(fp, attempt-1)); cerr != nil {
				err = cerr
				break
			}
			note(func(p *Progress) { p.Retried++ })
		}
		attempts = attempt
		v, err = r.attempt(ctx, i, key, compute)
		if err == nil {
			break
		}
		if _, isViolation := check.AsViolation(err); isViolation {
			// Invariant violations are deterministic properties of the
			// cell: retrying replays the same simulation to the same
			// broken state. Quarantine immediately.
			break
		}
		if ctx.Err() != nil {
			break
		}
	}
	if err != nil {
		ce := &CellError{Index: i, Key: key, Fp: fp, Attempts: attempts, Err: err}
		var pe *panicError
		if errors.As(err, &pe) {
			ce.Stack = string(pe.stack)
		}
		return nil, ce
	}
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, &CellError{Index: i, Key: key, Fp: fp, Attempts: attempts,
			Err: fmt.Errorf("encode result: %w", err)}
	}
	if r.Store != nil {
		r.Store.Put(key, raw)
	}
	note(func(p *Progress) { p.Computed++ })
	return raw, nil
}

// attempt runs one compute call with panic recovery and the per-attempt
// deadline. A recovered panic becomes a *panicError carrying the stack;
// panics whose value is an error (invariant violations, injected chaos
// panics) stay reachable through Unwrap.
func (r *Runner) attempt(ctx context.Context, i int, key CellKey, compute ComputeFunc) (v any, err error) {
	if r.CellTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, r.CellTimeout)
		defer cancel()
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = &panicError{val: rec, stack: debug.Stack()}
		}
	}()
	if err := failpoint.Inject("runlab/compute"); err != nil {
		return nil, err
	}
	return compute(ctx, i, key)
}

// backoff returns the sleep before the retry-th retry of the cell with
// fingerprint fp: exponential growth from BackoffBase, capped at
// BackoffMax, with deterministic jitter in [0.5,1.0)x derived from the
// fingerprint and the retry ordinal. Zero base means immediate retry.
func (r *Runner) backoff(fp Fingerprint, retry int) time.Duration {
	base := r.BackoffBase
	if base <= 0 {
		return 0
	}
	maxD := r.BackoffMax
	if maxD <= 0 {
		maxD = 30 * time.Second
	}
	d := base
	for i := 1; i < retry; i++ {
		d *= 2
		if d >= maxD {
			d = maxD
			break
		}
	}
	if d > maxD {
		d = maxD
	}
	h := hash.Mix64(fnv64(string(fp)) ^ uint64(retry))
	frac := 0.5 + 0.5*float64(h>>11)/float64(uint64(1)<<53)
	return time.Duration(float64(d) * frac)
}

// sleepCtx sleeps for d unless the context dies first, in which case it
// returns the context's error. d <= 0 only checks the context.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// fnv64 folds a string into a 64-bit FNV-1a hash (jitter seeding).
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
