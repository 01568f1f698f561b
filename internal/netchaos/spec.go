package netchaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"zcache/internal/failpoint"
)

// Fault is one class of network misbehavior the proxy can inject.
type Fault int

const (
	// Latency delays a chunk by d plus a deterministic jitter in
	// [0, jitter).
	Latency Fault = iota
	// Bandwidth caps a direction's forwarded bytes per second.
	Bandwidth
	// Drop blackholes a direction: bytes keep being read (so the sender
	// never blocks) but are never forwarded. The connection stays open,
	// which is what makes the peer's deadline handling observable.
	Drop
	// Reset closes both sides mid-stream with SO_LINGER 0, so the peer
	// sees a TCP RST (or at best an abrupt EOF) in the middle of a burst.
	Reset
	// Partial forwards a chunk as several small writes with a short pause
	// after the first fragment, exercising partial-read handling.
	Partial
)

// String names the fault as the spec grammar spells it.
func (f Fault) String() string {
	switch f {
	case Latency:
		return "latency"
	case Bandwidth:
		return "bandwidth"
	case Drop:
		return "drop"
	case Reset:
		return "reset"
	case Partial:
		return "partial"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// faultCfg is one parsed spec term.
type faultCfg struct {
	kind   Fault
	prob   float64       // p= per-chunk firing probability (default 1)
	times  int           // n= max fires per connection direction (0 = unlimited)
	delay  time.Duration // d= latency base
	jitter time.Duration // jitter= latency jitter bound
	bps    int           // bps= bandwidth cap
	max    int           // max= partial first-fragment bound (default 8)
	dir    int           // dir= direction the term applies to (-1 = both)
}

// Spec is a parsed fault specification. The grammar is the
// internal/failpoint spec grammar with the fault name standing in for
// name=mode — semicolon-separated terms:
//
//	fault[:key=value[,key=value...]]
//
// with faults latency | bandwidth | drop | reset | partial and keys
// p (probability, float in (0,1]), n (max fires per connection direction,
// int), d (latency, Go duration), jitter (latency jitter bound, Go
// duration), bps (bandwidth cap in bytes/second, int), max (partial
// first-fragment size bound, int), and dir (c2s or s2c, restricting the
// term to one direction — omit for both). A one-direction drop is an
// asymmetric partition: requests still arrive and the server still works,
// but its replies never come back, which is the failure deadlines exist
// for. Examples:
//
//	latency:d=2ms,jitter=5ms,p=0.1
//	reset:p=0.01;latency:d=1ms;bandwidth:bps=1048576
//	drop:dir=s2c,p=0.05
//
// Like failpoint.Configure, parsing is atomic: a spec with any invalid
// term configures nothing.
type Spec struct {
	faults []faultCfg
	seed   uint64
}

// ParseSpec parses spec, folding seed into every per-connection fault
// schedule. An empty spec is valid and injects nothing. Term splitting and
// the p, n, d arguments are failpoint's; the fault names and the jitter,
// bps, max and dir keys are this package's.
func ParseSpec(spec string, seed uint64) (*Spec, error) {
	s := &Spec{seed: seed}
	for _, term := range failpoint.SplitSpec(spec) {
		name, args, _ := strings.Cut(term, ":")
		cfg := faultCfg{kind: Latency, prob: 1, max: 8, dir: -1}
		for cfg.kind <= Partial && cfg.kind.String() != name {
			cfg.kind++
		}
		if cfg.kind > Partial {
			return nil, fmt.Errorf("netchaos: unknown fault %q in %q", name, term)
		}
		err := failpoint.EachArg(term, args, func(k, v string) (err error) {
			switch k {
			case "p":
				cfg.prob, err = failpoint.ParseProb(v)
			case "n":
				cfg.times, err = failpoint.ParseCount("count", v, 0)
			case "d":
				cfg.delay, err = failpoint.ParseDelay("delay", v)
			case "jitter":
				cfg.jitter, err = failpoint.ParseDelay("jitter", v)
			case "bps":
				cfg.bps, err = failpoint.ParseCount("bandwidth (bytes/second)", v, 1)
			case "max":
				cfg.max, err = failpoint.ParseCount("fragment bound", v, 1)
			case "dir":
				switch v {
				case "c2s":
					cfg.dir = 0
				case "s2c":
					cfg.dir = 1
				default:
					err = fmt.Errorf("bad direction %q (want c2s or s2c)", v)
				}
			default:
				err = fmt.Errorf("unknown arg %q in %q", k, term)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("netchaos: %w", err)
		}
		if cfg.kind == Bandwidth && cfg.bps == 0 {
			return nil, fmt.Errorf("netchaos: bandwidth needs bps= in %q", term)
		}
		s.faults = append(s.faults, cfg)
	}
	return s, nil
}

// String renders the spec back in grammar form (for logs).
func (s *Spec) String() string {
	var b strings.Builder
	for i, f := range s.faults {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(f.kind.String())
		sep := byte(':')
		arg := func(k, v string) {
			b.WriteByte(sep)
			sep = ','
			b.WriteString(k)
			b.WriteByte('=')
			b.WriteString(v)
		}
		if f.prob != 1 {
			arg("p", strconv.FormatFloat(f.prob, 'g', -1, 64))
		}
		if f.times != 0 {
			arg("n", strconv.Itoa(f.times))
		}
		if f.delay != 0 {
			arg("d", f.delay.String())
		}
		if f.jitter != 0 {
			arg("jitter", f.jitter.String())
		}
		if f.bps != 0 {
			arg("bps", strconv.Itoa(f.bps))
		}
		if f.kind == Partial && f.max != 8 {
			arg("max", strconv.Itoa(f.max))
		}
		switch f.dir {
		case 0:
			arg("dir", "c2s")
		case 1:
			arg("dir", "s2c")
		}
	}
	return b.String()
}
