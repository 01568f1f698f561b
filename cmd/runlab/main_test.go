package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zcache/internal/workloads"
)

func invoke(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func mustExit(t *testing.T, want int, args ...string) string {
	t.Helper()
	code, out, errw := invoke(args...)
	if code != want {
		t.Fatalf("runlab %s: exit %d, want %d\nstderr: %s\nstdout: %s", strings.Join(args, " "), code, want, errw, out)
	}
	return out
}

// TestVerbsExitZero runs every verb once at the test preset against one
// temporary store.
func TestVerbsExitZero(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{"run", "-preset", "test", "-suite", "all", "-workloads", "canneal,mcf", "-store", store},
		{"assoc", "-fig", "3", "-panel", "d", "-preset", "test"},
		{"sim", "-preset", "test", "-workload", "canneal", "-design", "sa-h3", "-lookup", "parallel"},
		{"sim", "-list"},
		{"cost", "sweep"},
		{"validate-sampled", "-preset", "test", "-workloads", "canneal"},
		{"status", "-store", store},
		{"gc", "-store", store},
		{"run", "-h"},
	} {
		if out := mustExit(t, 0, args...); out == "" && args[1] != "-h" {
			t.Errorf("runlab %v printed nothing", args)
		}
	}
}

// TestRunWarmRerun: a second run over the same store computes nothing and
// prints the same figures as a run without a store.
func TestRunWarmRerun(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	args := []string{"run", "-preset", "test", "-suite", "fig4,headline", "-workloads", "canneal,gamess"}
	cold := mustExit(t, 0, append(args, "-store", store)...)
	code, warm, errw := invoke(append(args, "-store", store)...)
	if code != 0 || warm != cold || !strings.Contains(errw, "0 computed") {
		t.Fatalf("warm rerun: exit %d, stderr %q, same stdout %v", code, errw, warm == cold)
	}
	code, bare, errw := invoke(append(args, "-store", "")...)
	if code != 0 || bare != cold || strings.Contains(errw, "runlab: runlab:") {
		t.Fatalf(`-store "": exit %d, stderr %q, same stdout %v`, code, errw, bare == cold)
	}
}

// TestRunWorkloadsReachEverySuite: -workloads restricts Fig. 5 as it does
// Fig. 4.
func TestRunWorkloadsReachEverySuite(t *testing.T) {
	out := mustExit(t, 0, "run", "-preset", "test", "-suite", "fig5", "-workloads", "canneal", "-store", "")
	if !strings.Contains(out, "\ncanneal ") {
		t.Fatalf("no canneal rows:\n%s", out)
	}
	for _, w := range workloads.Suite() {
		if w.Name != "canneal" && strings.Contains(out, "\n"+w.Name+" ") {
			t.Errorf("row for %s outside -workloads:\n%s", w.Name, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	for _, args := range [][]string{
		{},
		{"frobnicate"},
		{"run", "-no-such-flag"},
		{"run", "stray"},
		{"run", "-suite", "fig6"},
		{"run", "-preset", "huge"},
		{"run", "-policy", "mru"},
		{"run", "-workloads", "canneal,nosuch"},
		{"run", "-sampled", "-policy", "opt"},
		{"run", "-durable"},
		{"run", "-strict"},
		{"run", "-flush-every", "4"},
		{"assoc", "-fig", "7"},
		{"assoc", "-fig", "3", "-panel", "z"},
		{"sim", "-design", "sa-9"},
		{"sim", "-lookup", "paralel"},
		{"sim", "-workload", "nosuch"},
		{"cost", "table3"},
		{"cost", "merit", "ratios"},
		{"validate-sampled", "-policy", "opt"},
		{"validate-sampled", "-max-rel-err", "0.5"},
		{"status", "-store", ""},
		{"status", "-store", store, "-runs", "-1"},
		{"repair", "-store", store},
	} {
		if code, _, errw := invoke(args...); code != 2 || errw == "" {
			t.Errorf("runlab %v: exit %d, stderr %q; want 2 and a message", args, code, errw)
		}
	}
}

// TestQuarantineThenRepair is the chaos job's CLI contract: two injected
// cell failures quarantine (exit 4) with the missing cells listed, and
// after a gc the rerun backfills them (exit 0).
func TestQuarantineThenRepair(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	args := []string{"run", "-store", store, "-preset", "test", "-suite", "fig4", "-workloads", "canneal,gamess,mcf"}
	out := mustExit(t, 4, append(args, "-quarantine", "-failpoints", "runlab/compute=error:n=2")...)
	if !strings.Contains(out, "MISSING CELLS (2") {
		t.Errorf("partial figure does not list the missing cells:\n%s", out)
	}
	mustExit(t, 0, "gc", "-store", store)
	mustExit(t, 0, append(args, "-check")...)
}

// TestStatusCorruptStore: a garbage line in a shard is exit 3 until gc.
func TestStatusCorruptStore(t *testing.T) {
	store := filepath.Join(t.TempDir(), "store")
	mustExit(t, 0, "run", "-store", store, "-preset", "test", "-suite", "bw", "-workloads", "canneal")
	shards, err := filepath.Glob(filepath.Join(store, "*.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards in %s (%v)", store, err)
	}
	f, err := os.OpenFile(shards[0], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("{not json\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mustExit(t, 3, "status", "-store", store)
	mustExit(t, 0, "gc", "-store", store)
	mustExit(t, 0, "status", "-store", store)
}

// TestStaleSchemaStore: lines an older schema wrote (an exact and a
// sampled cell of the schema-2 layout) are stale, not corrupt. run
// recomputes their cells, prints what a run without a store prints and
// exits 0; status reports them and exits 0; gc drops them.
func TestStaleSchemaStore(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("..", "..", "internal", "runlab", "testdata", "schema2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(store, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(store, "ff.jsonl"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mode := range [][]string{nil, {"-sampled"}} {
		args := append([]string{"run", "-preset", "test", "-suite", "fig4", "-workloads", "mcf,canneal"}, mode...)
		code, out, errw := invoke(append(args, "-store", store)...)
		if code != 0 || !strings.Contains(errw, "0 cached, 12 computed") {
			t.Fatalf("run %v over a stale store: exit %d, stderr %q", mode, code, errw)
		}
		if bare := mustExit(t, 0, append(args, "-store", "")...); bare != out {
			t.Errorf("run %v over a stale store prints other figures than -store \"\"", mode)
		}
	}
	if out := mustExit(t, 0, "status", "-store", store); !strings.Contains(out, "2 stale-schema and 0 corrupt") {
		t.Errorf("status does not report the stale lines:\n%s", out)
	}
	mustExit(t, 0, "gc", "-store", store)
	if out := mustExit(t, 0, "status", "-store", store); strings.Contains(out, "stale-schema") {
		t.Errorf("stale lines survive gc:\n%s", out)
	}
}

// TestPinnedResults: the model tables and the fast §IV figures reproduce
// the checked-in results byte for byte.
func TestPinnedResults(t *testing.T) {
	pins := []struct {
		file string
		args []string
	}{
		{"tableII.txt", []string{"cost"}},
		{"tableII_ratios.txt", []string{"cost", "ratios"}},
		{"merit.txt", []string{"cost", "merit"}},
		{"fig2.txt", []string{"assoc", "-fig", "2"}},
		{"conflict_proxy.txt", []string{"assoc", "-fig", "conflict"}},
	}
	if !testing.Short() {
		pins = append(pins, struct {
			file string
			args []string
		}{"fig2_validate.txt", []string{"assoc", "-fig", "validate"}})
	}
	for _, p := range pins {
		want, err := os.ReadFile(filepath.Join("..", "..", "results", p.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := mustExit(t, 0, p.args...); got != string(want) {
			t.Errorf("runlab %s differs from results/%s:\n%s", strings.Join(p.args, " "), p.file, got)
		}
	}
}
