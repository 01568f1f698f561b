// Package failpoint provides named, seed-deterministic fault-injection
// points for chaos testing the experiment engine.
//
// A failpoint is a named site in production code where a test (or the
// -failpoints CLI flag) can inject one of four fault classes:
//
//   - error: the site receives an injected error to propagate
//   - panic: the site panics (with *Panic), exercising recovery paths
//   - delay: the site sleeps, exercising timeouts and backoff
//   - torn:  a write site truncates its payload, simulating a crash
//     mid-write (the caller decides how many tail bytes to drop)
//
// Sites call Inject (error/panic/delay) or Eval (when they need the full
// Action, e.g. the torn-write byte count). When no failpoint is enabled —
// the production configuration — both compile down to a single atomic
// load and return immediately, so instrumented code pays nothing.
//
// Firing decisions are deterministic: each point keeps a call counter,
// and the n-th evaluation fires iff mix64(seed ^ hash(name) ^ n) falls
// under the configured probability (or unconditionally for p=1). The same
// spec and seed therefore produce the same fault schedule for the same
// per-point call sequence, which is what makes chaos regressions
// reproducible under Workers=1.
package failpoint

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"zcache/internal/hash"
)

// Mode is the fault class a point injects.
type Mode int

const (
	// Off is the zero Action: no fault.
	Off Mode = iota
	// Error hands the site an injected error.
	Error
	// PanicMode makes the site panic with *Panic.
	PanicMode
	// Delay makes the site sleep for the configured duration.
	Delay
	// Torn makes a write site drop its payload's tail bytes and fail,
	// simulating a crash mid-write.
	Torn
)

// String names the mode as the spec grammar spells it.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Error:
		return "error"
	case PanicMode:
		return "panic"
	case Delay:
		return "delay"
	case Torn:
		return "torn"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Action is what one evaluation of a failpoint tells the site to do. The
// zero Action (Mode == Off) means "proceed normally".
type Action struct {
	Mode Mode
	// Err is the injected error for Error and Torn modes.
	Err error
	// Delay is the sleep for Delay mode.
	Delay time.Duration
	// Truncate is how many payload tail bytes a Torn write drops.
	Truncate int
}

// InjectedError is the error type Error-mode injections produce, so tests
// and retry policies can recognize synthetic faults.
type InjectedError struct{ Point string }

func (e *InjectedError) Error() string {
	return fmt.Sprintf("failpoint: injected error at %q", e.Point)
}

// Panic is the value PanicMode injections panic with.
type Panic struct{ Point string }

func (e *Panic) Error() string {
	return fmt.Sprintf("failpoint: injected panic at %q", e.Point)
}

// point is one configured failpoint.
type point struct {
	name     string
	mode     Mode
	prob     float64       // firing probability per evaluation (default 1)
	delay    time.Duration // Delay mode sleep
	truncate int           // Torn mode tail bytes (default 1)
	seed     uint64
	calls    atomic.Uint64 // evaluations so far
	left     atomic.Int64  // remaining fires (-1 = unlimited)
	fired    atomic.Uint64 // fires so far
}

// active is the global fast-path gate: when false (the production
// default), Eval and Inject return immediately.
var active atomic.Bool

var registry sync.Map // name -> *point

// Enable configures one failpoint. mode decides the fault class; prob is
// the per-evaluation firing probability (clamped to [0,1]); times bounds
// total fires (<=0 = unlimited). Enable replaces any previous
// configuration of the same name.
func Enable(name string, mode Mode, prob float64, times int, opts ...Option) {
	if prob <= 0 || prob > 1 {
		prob = 1
	}
	p := &point{name: name, mode: mode, prob: prob, truncate: 1,
		seed: hash.Mix64(hashName(name))}
	if times > 0 {
		p.left.Store(int64(times))
	} else {
		p.left.Store(-1)
	}
	for _, o := range opts {
		o(p)
	}
	registry.Store(name, p)
	active.Store(true)
}

// Option tunes one Enable call.
type Option func(*point)

// WithDelay sets the Delay-mode sleep.
func WithDelay(d time.Duration) Option { return func(p *point) { p.delay = d } }

// WithTruncate sets the Torn-mode tail-byte count.
func WithTruncate(n int) Option {
	return func(p *point) {
		if n > 0 {
			p.truncate = n
		}
	}
}

// WithSeed overrides the point's firing-schedule seed (by default derived
// from the name alone, so Configure's global seed can fold in).
func WithSeed(seed uint64) Option {
	return func(p *point) { p.seed = hash.Mix64(seed ^ hashName(p.name)) }
}

// Reset removes every failpoint; tests defer it to restore the
// production configuration.
func Reset() {
	registry.Range(func(k, _ any) bool { registry.Delete(k); return true })
	active.Store(false)
}

// Eval evaluates the named failpoint and returns the Action the site
// must apply. The production fast path — no failpoint enabled anywhere —
// is a single atomic load.
func Eval(name string) Action {
	if !active.Load() {
		return Action{}
	}
	v, ok := registry.Load(name)
	if !ok {
		return Action{}
	}
	p := v.(*point)
	n := p.calls.Add(1) - 1
	if p.prob < 1 {
		// Deterministic per-call coin: the n-th evaluation's fate
		// depends only on (seed, name, n).
		if float64(hash.Mix64(p.seed^n))/float64(^uint64(0)) >= p.prob {
			return Action{}
		}
	}
	// Respect the fire budget without racing concurrent evaluations.
	for {
		left := p.left.Load()
		if left == 0 {
			return Action{}
		}
		if left < 0 || p.left.CompareAndSwap(left, left-1) {
			break
		}
	}
	p.fired.Add(1)
	switch p.mode {
	case Error:
		return Action{Mode: Error, Err: &InjectedError{Point: name}}
	case PanicMode:
		return Action{Mode: PanicMode}
	case Delay:
		return Action{Mode: Delay, Delay: p.delay}
	case Torn:
		return Action{Mode: Torn, Truncate: p.truncate,
			Err: fmt.Errorf("failpoint: injected torn write at %q", name)}
	default:
		return Action{}
	}
}

// Inject evaluates the named failpoint and applies the simple actions
// itself: Error returns the injected error, PanicMode panics with
// *Panic, Delay sleeps. Torn actions cannot be applied generically —
// write sites must use Eval. Returns nil on the production fast path.
func Inject(name string) error {
	act := Eval(name)
	switch act.Mode {
	case Error:
		return act.Err
	case PanicMode:
		panic(&Panic{Point: name})
	case Delay:
		time.Sleep(act.Delay)
	}
	return nil
}

// Fired reports how many times the named point has fired.
func Fired(name string) uint64 {
	v, ok := registry.Load(name)
	if !ok {
		return 0
	}
	return v.(*point).fired.Load()
}

// SplitSpec splits a fault spec into its semicolon-separated terms, trimmed,
// empty ones dropped. The spec grammar — terms of head[:key=value[,key=value...]]
// — is shared with internal/netchaos; each package brings its own heads and
// keys and parses the common ones (p, n, d) through the functions below.
func SplitSpec(spec string) []string {
	var terms []string
	for _, term := range strings.Split(spec, ";") {
		if term = strings.TrimSpace(term); term != "" {
			terms = append(terms, term)
		}
	}
	return terms
}

// EachArg calls set for every key=value pair of a term's comma-separated
// argument list (args may be empty), stopping at the first error.
func EachArg(term, args string, set func(key, val string) error) error {
	if args == "" {
		return nil
	}
	for _, kv := range strings.Split(args, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad arg %q in %q", kv, term)
		}
		if err := set(k, v); err != nil {
			return err
		}
	}
	return nil
}

// ParseProb parses a firing probability in (0, 1].
func ParseProb(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad probability %q: %v", v, err)
	}
	// NaN slips through ordered comparisons (every clamp test is false),
	// so spell the valid range positively rather than rejecting the
	// invalid one.
	if !(f > 0 && f <= 1) {
		return 0, fmt.Errorf("probability %q outside (0, 1]", v)
	}
	return f, nil
}

// ParseCount parses an integer argument called what that must be at least
// floor.
func ParseCount(what, v string, floor int) (int, error) {
	i, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", what, v, err)
	}
	if i < floor {
		return 0, fmt.Errorf("%s %q must be at least %d", what, v, floor)
	}
	return i, nil
}

// ParseDelay parses a non-negative Go duration argument called what.
func ParseDelay(what, v string) (time.Duration, error) {
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: %v", what, v, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative %s %q", what, v)
	}
	return d, nil
}

// Configure parses a spec string and enables every failpoint in it,
// folding seed into each point's firing schedule. The grammar is
// semicolon-separated terms:
//
//	name=mode[:key=value[,key=value...]]
//
// with modes error | panic | delay | torn and keys p (probability,
// float), n (max fires, int; omit for unlimited), d (delay, Go duration),
// trunc (torn tail bytes, int). Examples:
//
//	runlab/compute=panic:p=0.1
//	runlab/store/append=torn:n=1,trunc=7;runlab/compute=delay:d=5ms
//
// Configure is atomic: a spec with any invalid term enables nothing.
func Configure(spec string, seed uint64) error {
	type pending struct {
		name  string
		mode  Mode
		prob  float64
		times int
		opts  []Option
	}
	var parsed []pending
	for _, term := range SplitSpec(spec) {
		name, rest, ok := strings.Cut(term, "=")
		if !ok || name == "" {
			return fmt.Errorf("failpoint: bad term %q (want name=mode[:args])", term)
		}
		modeStr, args, _ := strings.Cut(rest, ":")
		mode := Error
		for mode <= Torn && mode.String() != modeStr {
			mode++
		}
		if mode > Torn {
			return fmt.Errorf("failpoint: unknown mode %q in %q", modeStr, term)
		}
		p := pending{name: name, mode: mode, prob: 1, opts: []Option{WithSeed(seed)}}
		err := EachArg(term, args, func(k, v string) (err error) {
			switch k {
			case "p":
				p.prob, err = ParseProb(v)
			case "n":
				p.times, err = ParseCount("count", v, 0)
			case "d":
				var d time.Duration
				if d, err = ParseDelay("delay", v); err == nil {
					p.opts = append(p.opts, WithDelay(d))
				}
			case "trunc":
				var n int
				if n, err = ParseCount("truncation", v, 1); err == nil {
					p.opts = append(p.opts, WithTruncate(n))
				}
			default:
				err = fmt.Errorf("unknown arg %q in %q", k, term)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("failpoint: %w", err)
		}
		parsed = append(parsed, p)
	}
	for _, p := range parsed {
		Enable(p.name, p.mode, p.prob, p.times, p.opts...)
	}
	return nil
}

// hashName folds a point name into a 64-bit seed (FNV-1a).
func hashName(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}
