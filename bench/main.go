// Command bench is the repository's one benchmark: seven named workloads
// over the whole stack, end-to-end metrics from an untraced run and a
// per-layer cost ledger from a traced one. BENCHMARK.json at the repository
// root declares the workloads, the metrics and their bounds; README.md in
// this directory says why each is there.
//
//	bench --workload NAME --seed N --seconds S --trace 0|1 [-out FILE] [-spans DIR]
//	bench agree A.jsonl B.jsonl
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// An untraced run sets its workload up at least minSetups times, and goes on
// to maxSetups while the set-ups so far took less than setupBudget, so that a
// set-up of 50 ms is timed as often as it cheaply can be. setup_s and
// mem_bytes_per_entry are the medians; the last set-up is the one measured.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 1500 * time.Millisecond
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	spansDir string
	manifest string
}

// envRecord is where a result was measured. Two results are comparable only
// when these agree.
type envRecord struct {
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Go          string `json:"go"`
	CPU         string `json:"cpu"`
	Kernel      string `json:"kernel"`
	Commit      string `json:"commit"`
	LoadThreads int    `json:"load_threads"`
	Loop        string `json:"loop"`
}

// result is one run as -out records it; the last line of standard output is
// its Correct, Attempted, Failed and Metrics alone.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Traced    bool                   `json:"traced"`
	Env       envRecord              `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Within is the spread inside the run: what each headline median was
	// taken over.
	Within map[string]any `json:"within,omitempty"`
}

// rig is one set-up of a workload, ready for timed phases.
type rig interface {
	// setupCost is the wall time of the untimed set-up and the live heap it
	// left per resident entry.
	setupCost() (time.Duration, float64)
	// run drives the workload for dur; traced also records spans around the
	// calls into each layer.
	run(ctx context.Context, dur time.Duration, traced bool) (phase, []*spanRec, error)
	// verify checks what a timed phase cannot: golden digests and the
	// sampled simulator's error against full replay.
	verify() (attempted, failed int64, err error)
	close() error
}

type workload struct {
	name string
	kv   *kvSpec
	sim  *simSpec
}

func allWorkloads() []workload {
	var ws []workload
	for i := range kvSpecs {
		ws = append(ws, workload{name: kvSpecs[i].name, kv: &kvSpecs[i]})
	}
	for i := range simSpecs {
		ws = append(ws, workload{name: simSpecs[i].name, sim: &simSpecs[i]})
	}
	return ws
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range allWorkloads() {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func (w workload) setup(ctx context.Context, o options, tmp string) (rig, error) {
	if w.kv != nil {
		return setupKV(*w.kv, o.seed, tmp)
	}
	return setupSim(ctx, *w.sim, o.seed, o.seconds < 1)
}

func readEnv() envRecord {
	e := envRecord{
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Go:          runtime.Version(),
		CPU:         "unknown",
		Kernel:      "unknown",
		Commit:      "unknown",
		LoadThreads: loadThreads,
		Loop:        fmt.Sprintf("closed, %d callers", loadThreads),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		e.Kernel = string(b)
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					e.Commit += "+dirty"
				}
			}
		}
	}
	return e
}

// guard refuses a host on which the load threads would time-share a
// processor with each other: every recorded number assumes they do not.
func (e envRecord) guard() error {
	if e.LoadThreads > e.NProc || e.LoadThreads > e.GOMAXPROCS {
		return fmt.Errorf("%d load threads need as many processors; host has nproc=%d GOMAXPROCS=%d", e.LoadThreads, e.NProc, e.GOMAXPROCS)
	}
	return nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run (see BENCHMARK.json)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase; below 1 the simulation workloads shrink too (smoke run)")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.StringVar(&o.out, "out", "", "append the full result as one JSON line to this file")
	flag.StringVar(&o.spansDir, "spans", "", "traced run: write the recorded spans under this directory")
	flag.StringVar(&o.manifest, "manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Parse()
	o.trace = trace != 0
	if flag.NArg() > 0 || o.seconds <= 0 || trace < 0 || trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, o)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) (res result, err error) {
	mf, err := loadManifest(o.manifest)
	if err != nil {
		return res, err
	}
	w, err := workloadByName(o.workload)
	if err != nil {
		return res, err
	}
	res = result{Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.trace, Env: readEnv()}
	if err := res.Env.guard(); err != nil {
		return res, err
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v | %s, %s, kernel %s, nproc=%d GOMAXPROCS=%d, commit %s, loop %s\n",
		w.name, o.seed, o.seconds, o.trace, res.Env.Go, res.Env.CPU, res.Env.Kernel, res.Env.NProc, res.Env.GOMAXPROCS, res.Env.Commit, res.Env.Loop)

	// Temporary files stay under the working directory, which is the
	// checkout; TMPDIR overrides for a caller who wants them elsewhere.
	tmpRoot := os.Getenv("TMPDIR")
	if tmpRoot == "" {
		tmpRoot = "."
	}
	tmp, err := os.MkdirTemp(tmpRoot, ".bench-tmp-")
	if err != nil {
		return res, err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(tmp)) }()

	m := metricSet{}
	defs := mf.EndToEnd
	if o.trace {
		defs = mf.PerLayer
		res.Attempted, res.Failed, err = runTraced(ctx, w, o, tmp, m)
	} else {
		res.Attempted, res.Failed, res.Within, err = runUntraced(ctx, w, o, tmp, m)
	}
	if err != nil {
		return res, err
	}
	if res.Metrics, err = m.declared(defs); err != nil {
		return res, err
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	for _, d := range defs {
		fmt.Printf("%-32s %16.6g %s\n", d.Name, m[d.Name], d.Unit)
	}
	if o.out != "" {
		if err := appendJSON(o.out, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

func appendJSON(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runUntraced is the end-to-end run: set the workload up several times,
// drive the last set-up for the whole of o.seconds, verify.
func runUntraced(ctx context.Context, w workload, o options, tmp string, m metricSet) (attempted, failed int64, within map[string]any, err error) {
	var e rig
	var setups, mems []float64
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return 0, 0, nil, err
			}
		}
		if e, err = w.setup(ctx, o, tmp); err != nil {
			return 0, 0, nil, fmt.Errorf("set-up: %w", err)
		}
		d, mem := e.setupCost()
		spent += d
		setups, mems = append(setups, d.Seconds()), append(mems, mem)
	}
	defer func() { err = errors.Join(err, e.close()) }()

	ph, _, err := e.run(ctx, time.Duration(o.seconds*float64(time.Second)), false)
	if err != nil {
		return 0, 0, nil, err
	}
	va, vf, err := e.verify()
	if err != nil {
		return 0, 0, nil, err
	}
	m.set("setup_s", median(setups))
	m.set("mem_bytes_per_entry", median(mems))
	m.set("ops_per_s", ph.opsPerSecond())
	m.set("hit_rate", ph.hitRate())

	lo, hi := minMax(ph.opsPerS)
	sLo, sHi := minMax(setups)
	within = map[string]any{
		"slices":             ph.completeSlice,
		"slice_ops_per_s":    ph.opsPerS,
		"ops_per_s_median":   median(ph.opsPerS),
		"ops":                ph.ops,
		"ops_per_s_min":      lo,
		"ops_per_s_max":      hi,
		"op_p50_us":          median(ph.p50) / 1e3,
		"op_p99_us":          median(ph.p99) / 1e3,
		"latency_per_slice":  ph.latPerSlice,
		"tail_percentile":    ph.tailUsed,
		"setups":             len(setups),
		"setup_s_min":        sLo,
		"setup_s_max":        sHi,
		"cpu_user_ns_per_op": div(float64(ph.cpuUser), float64(ph.done)),
		"cpu_sys_ns_per_op":  div(float64(ph.cpuSys), float64(ph.done)),
	}
	keys := make([]string, 0, len(within))
	for k := range within {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, series := within[k].([]float64); !series {
			fmt.Printf("# within-run %-20s %v\n", k, within[k])
		}
	}
	return ph.attempted + va, ph.failed + vf, within, nil
}
