package failpoint

import (
	"math"
	"strings"
	"testing"
)

// FuzzConfigure throws arbitrary spec strings at the grammar. The decoder
// must never panic, and any spec it accepts must yield points that hold the
// package's invariants: probability in (0,1], positive truncation,
// non-negative delay. Rejected specs must enable nothing (Configure is
// atomic).
func FuzzConfigure(f *testing.F) {
	for _, s := range []string{
		"",
		"runlab/compute=panic:p=0.1",
		"runlab/store/append=torn:n=1,trunc=7;runlab/compute=delay:d=5ms",
		"a=error",
		"a=error:p=1,n=3",
		"a=delay:d=1h",
		"a=torn:trunc=100",
		"a=error:p=NaN",
		"a=error:p=+Inf",
		"a=error:n=-1",
		"a=delay:d=-5ms",
		"a=torn:trunc=0",
		"=error",
		"a=",
		"a=error:p=",
		"a=error:;b=panic",
		"a=error:p=0.5;;b=panic",
		";;;",
		"a=error:p=1e308",
		"a=delay:d=9999999h",
		// internal/netchaos parses its specs through the same splitter and
		// argument parsers; its shapes (no name=, foreign keys) go last so
		// the seeds above keep their corpus numbers.
		"latency:d=2ms,jitter=5ms,p=0.1",
		"reset:p=0.01;latency:d=1ms;bandwidth:bps=1048576",
		"drop:dir=s2c,p=0.05",
		"drop:p=0.001,n=1;partial:p=0.2,max=16",
	} {
		f.Add(s, uint64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		defer Reset()
		err := Configure(spec, seed)
		pts := enabled()
		if err != nil {
			if len(pts) != 0 {
				t.Fatalf("Configure(%q) errored (%v) but enabled %d points", spec, err, len(pts))
			}
			return
		}
		for _, p := range pts {
			if math.IsNaN(p.prob) || !(p.prob > 0 && p.prob <= 1) {
				t.Fatalf("Configure(%q) accepted probability %v for %q", spec, p.prob, p.name)
			}
			if p.mode < Error || p.mode > Torn {
				t.Fatalf("Configure(%q) produced mode %v for %q", spec, p.mode, p.name)
			}
			if strings.TrimSpace(p.name) == "" {
				t.Fatalf("Configure(%q) accepted empty point name", spec)
			}
			// An Eval on the fuzzer-chosen name must not panic either
			// (Delay-mode sleeps are not applied by Eval, only sized).
			act := Eval(p.name)
			if act.Mode == Torn && act.Truncate < 1 {
				t.Fatalf("Configure(%q): torn action with truncate %d", spec, act.Truncate)
			}
			if act.Mode == Delay && act.Delay < 0 {
				t.Fatalf("Configure(%q): negative delay %v", spec, act.Delay)
			}
		}
	})
}
