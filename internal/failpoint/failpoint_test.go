package failpoint

import (
	"errors"
	"testing"
	"time"
)

// enabled returns the configured failpoints.
func enabled() []*point {
	var out []*point
	registry.Range(func(_, v any) bool {
		out = append(out, v.(*point))
		return true
	})
	return out
}

func TestDisabledFastPathIsInert(t *testing.T) {
	Reset()
	if act := Eval("never/enabled"); act.Mode != Off {
		t.Fatalf("disabled Eval returned %+v", act)
	}
	if err := Inject("never/enabled"); err != nil {
		t.Fatalf("disabled Inject returned %v", err)
	}
	if got := enabled(); len(got) != 0 {
		t.Fatalf("%d points enabled on a clean registry", len(got))
	}
}

func TestErrorModeTypedAndBudgeted(t *testing.T) {
	defer Reset()
	Enable("t/err", Error, 1, 2)
	fired := 0
	var last error
	for i := 0; i < 10; i++ {
		if err := Inject("t/err"); err != nil {
			fired++
			last = err
		}
	}
	if fired != 2 {
		t.Fatalf("fired %d times, want exactly the budget of 2", fired)
	}
	var ie *InjectedError
	if !errors.As(last, &ie) || ie.Point != "t/err" {
		t.Fatalf("injected error %v is not a typed *InjectedError", last)
	}
	if Fired("t/err") != 2 {
		t.Fatalf("Fired = %d, want 2", Fired("t/err"))
	}
}

func TestPanicModePanicsWithTypedValue(t *testing.T) {
	defer Reset()
	Enable("t/panic", PanicMode, 1, 0)
	defer func() {
		rec := recover()
		p, ok := rec.(*Panic)
		if !ok || p.Point != "t/panic" {
			t.Fatalf("recovered %v, want *Panic for t/panic", rec)
		}
	}()
	Inject("t/panic")
	t.Fatal("Inject did not panic")
}

func TestDelayModeSleeps(t *testing.T) {
	defer Reset()
	Enable("t/delay", Delay, 1, 0, WithDelay(5*time.Millisecond))
	start := time.Now()
	if err := Inject("t/delay"); err != nil {
		t.Fatalf("delay injection returned %v", err)
	}
	if el := time.Since(start); el < 5*time.Millisecond {
		t.Fatalf("slept %v, want >= 5ms", el)
	}
}

func TestTornModeCarriesTruncation(t *testing.T) {
	defer Reset()
	Enable("t/torn", Torn, 1, 0, WithTruncate(7))
	act := Eval("t/torn")
	if act.Mode != Torn || act.Truncate != 7 || act.Err == nil {
		t.Fatalf("torn action = %+v", act)
	}
}

// TestFiringScheduleDeterministic: the per-call coin is a pure function
// of (seed, name, call ordinal) — same seed, same schedule; different
// seed, different schedule.
func TestFiringScheduleDeterministic(t *testing.T) {
	defer Reset()
	schedule := func(seed uint64) []bool {
		Reset()
		Enable("t/coin", Error, 0.3, 0, WithSeed(seed))
		out := make([]bool, 256)
		for i := range out {
			out[i] = Inject("t/coin") != nil
		}
		return out
	}
	same := func(a, b []bool) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	a, b := schedule(7), schedule(7)
	if !same(a, b) {
		t.Fatal("same seed produced different firing schedules")
	}
	c := schedule(8)
	if same(a, c) {
		t.Fatal("different seeds produced identical 256-call schedules")
	}
	n := 0
	for _, f := range a {
		if f {
			n++
		}
	}
	if n < 32 || n > 160 {
		t.Errorf("p=0.3 fired %d/256 times; coin looks badly biased", n)
	}
}

func TestDisableAndReset(t *testing.T) {
	defer Reset()
	Enable("t/a", Error, 1, 0)
	Enable("t/b", Error, 1, 0)
	// Re-enabling a point in mode Off replaces its configuration and
	// disarms it alone.
	Enable("t/a", Off, 1, 0)
	if Inject("t/a") != nil {
		t.Fatal("point re-enabled as Off still fires")
	}
	if Inject("t/b") == nil {
		t.Fatal("sibling point stopped firing after an unrelated Off")
	}
	// Reset disarms every point, and the fast path with it.
	Reset()
	if Inject("t/a") != nil || Inject("t/b") != nil || active.Load() {
		t.Fatal("a point survived Reset")
	}
}

func TestConfigureSpecGrammar(t *testing.T) {
	defer Reset()
	err := Configure("t/a=error:p=0.5,n=3; t/b=torn:trunc=9 ;t/c=delay:d=2ms;t/d=panic", 42)
	if err != nil {
		t.Fatal(err)
	}
	got := enabled()
	if len(got) != 4 {
		t.Fatalf("%d points enabled, want 4", len(got))
	}
	byName := map[string]*point{}
	for _, p := range got {
		byName[p.name] = p
	}
	if p := byName["t/a"]; p.mode != Error || p.prob != 0.5 {
		t.Errorf("t/a = mode %v, p %v", p.mode, p.prob)
	}
	if act := Eval("t/b"); act.Mode != Torn || act.Truncate != 9 {
		t.Errorf("t/b eval = %+v", act)
	}
	if act := Eval("t/c"); act.Mode != Delay || act.Delay != 2*time.Millisecond {
		t.Errorf("t/c eval = %+v", act)
	}
	if m := byName["t/d"].mode; m != PanicMode {
		t.Errorf("t/d mode = %v", m)
	}
}

func TestConfigureRejectsBadSpecs(t *testing.T) {
	defer Reset()
	for _, spec := range []string{
		"noequals",
		"x=wat",
		"x=error:p=zz",
		"x=error:loose",
		"x=error:k=1",
		"x=delay:d=fast",
		"=error",
		"x=error:p=NaN",
		"x=error:p=Inf",
		"x=error:p=0",
		"x=error:p=1.5",
		"x=error:p=-0.5",
		"x=error:n=-1",
		"x=delay:d=-5ms",
		"x=torn:trunc=0",
		"x=torn:trunc=-3",
	} {
		if err := Configure(spec, 1); err == nil {
			t.Errorf("Configure(%q) accepted a bad spec", spec)
		}
	}
}

func TestConfigureIsAtomic(t *testing.T) {
	defer Reset()
	// Term 1 is valid, term 2 is not: nothing may be enabled.
	if err := Configure("good=error:p=0.5;bad=error:p=NaN", 1); err == nil {
		t.Fatal("bad second term accepted")
	}
	if pts := enabled(); len(pts) != 0 {
		t.Fatalf("failed Configure enabled %d points", len(pts))
	}
}
