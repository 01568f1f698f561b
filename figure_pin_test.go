package zcache

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sort"
	"testing"

	"zcache/internal/failpoint"
)

// figureDigests pins the JSON of every matrix figure on six test-preset
// workloads, each once exact and once with the first two dispatched cells
// quarantined (the partial output plus MatrixError.Missing). A refactor of
// the figure drivers must leave every value in place.
var figureDigests = map[string]string{
	"fig4-lru":          "a05e8a0d75ce921217d7bc4553e0fbf7e05e1109dc80f69dcfce69faf0d7d7cc",
	"fig4-lru/partial":  "e641c5527d5657ee9a15464955c6b9189e951d1565b8652786111265103d64e1",
	"fig4-opt":          "97d8d303881c83ea989ab84c7100aa96c9b14119f7dd12811372f22a4e6cf6cf",
	"fig4-opt/partial":  "e312eb75a5535ded49778630e69372650ffe872b12169e1a717a51c1e82d3b95",
	"fig5-lru":          "ca3f0baa1a1feb652c5dfa256da220e5c8752e5196f6d7a6325c23349a16d577",
	"fig5-lru/partial":  "6fd0d9d2d8b4d6a10f03ba5f85fffd4bde005fd20d20a50bca127401b5a87b8a",
	"policies":          "542e1957f41da253a62da4bddc417351b02224db7566bc9dd9eb9e23d1225f37",
	"policies/partial":  "18d804eb77e832b61d0de8548137edd1d29ef5d5009a64a57e7aa885a5e45c99",
	"bandwidth":         "f8092f671adb4e607ae1492a1e2a1bc077e705aad6f73870eaef5e0ede23a123",
	"bandwidth/partial": "9c9ebef680ec5a659d69d09611ad5d69e6b07cdea74214c6c79990ce9007ff84",
}

func TestFigureDigestsPinned(t *testing.T) {
	defer failpoint.Reset()
	ctx := context.Background()
	names := []string{"canneal", "gamess", "mcf", "ammp", "cactusADM", "blackscholes"}
	out := func(v any, err error) (any, error) { return v, err }
	figures := []struct {
		name string
		run  func(e *Experiment) (any, error)
	}{
		{"fig4-lru", func(e *Experiment) (any, error) { return out(e.Fig4(ctx, names, PolicyBucketedLRU)) }},
		{"fig4-opt", func(e *Experiment) (any, error) { return out(e.Fig4(ctx, names, PolicyOPT)) }},
		{"fig5-lru", func(e *Experiment) (any, error) {
			cells, err := e.Fig5(ctx, names, PolicyBucketedLRU)
			// Fig5 emits per-class geomeans in map order.
			sort.Slice(cells, func(i, j int) bool {
				a, b := cells[i], cells[j]
				if a.Workload != b.Workload {
					return a.Workload < b.Workload
				}
				if a.Design.Label != b.Design.Label {
					return a.Design.Label < b.Design.Label
				}
				return a.Lookup < b.Lookup
			})
			return cells, err
		}},
		{"policies", func(e *Experiment) (any, error) {
			return out(e.PolicyStudy(ctx, names, []PolicyKind{PolicyLRU, PolicySRRIP, PolicyDRRIP, PolicyLFU, PolicyRandom}))
		}},
		{"bandwidth", func(e *Experiment) (any, error) { return out(e.Bandwidth(ctx, names)) }},
	}
	check := func(name string, v any) {
		t.Helper()
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256(raw)
		if got, want := hex.EncodeToString(sum[:]), figureDigests[name]; got != want {
			t.Errorf("%s: digest %s, pinned %q", name, got, want)
		}
	}
	for _, f := range figures {
		v, err := f.run(NewExperiment(TestPreset()))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		check(f.name, v)

		// One worker keeps the failpoint's two fires on the same two cells
		// under every schedule.
		e := NewExperiment(TestPreset())
		e.Lab.Quarantine, e.Lab.Workers = true, 1
		failpoint.Enable("runlab/compute", failpoint.Error, 1, 2)
		v, err = f.run(e)
		failpoint.Reset()
		var merr *MatrixError
		if !errors.As(err, &merr) {
			t.Fatalf("%s partial: err = %v, want *MatrixError", f.name, err)
		}
		check(f.name+"/partial", struct {
			Out     any
			Missing []MissingCell
		}{v, merr.Missing})
	}
}
