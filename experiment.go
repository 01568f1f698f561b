package zcache

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"zcache/internal/assoc"
	"zcache/internal/energy"
	"zcache/internal/runlab"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/stats"
	"zcache/internal/trace"
	"zcache/internal/workloads"
)

// Preset sizes an experiment run. Full is the paper's Table I machine;
// Quick shrinks the machine and instruction counts so the whole figure
// suite runs in minutes on a laptop (footprints scale with the L2, so the
// qualitative results survive).
type Preset struct {
	Name                string
	Cores               int
	L2Bytes             uint64
	L2Banks             int
	InstructionsPerCore uint64
	// WarmupInstructionsPerCore fast-forwards before measurement (§V).
	WarmupInstructionsPerCore uint64
	Seed                      uint64
}

// FullPreset is the paper-scale machine (32 cores, 8MB L2).
func FullPreset() Preset {
	return Preset{Name: "full", Cores: 32, L2Bytes: 8 << 20, L2Banks: 8,
		InstructionsPerCore: 1 << 20, WarmupInstructionsPerCore: 512 << 10, Seed: 0xC0FFEE}
}

// QuickPreset is the laptop-scale machine (8 cores, 1MB L2).
func QuickPreset() Preset {
	return Preset{Name: "quick", Cores: 8, L2Bytes: 1 << 20, L2Banks: 4,
		InstructionsPerCore: 200_000, WarmupInstructionsPerCore: 100_000, Seed: 0xC0FFEE}
}

// TestPreset is the smallest useful machine, for unit tests.
func TestPreset() Preset {
	return Preset{Name: "test", Cores: 4, L2Bytes: 512 << 10, L2Banks: 4,
		InstructionsPerCore: 60_000, WarmupInstructionsPerCore: 20_000, Seed: 0xC0FFEE}
}

// DesignPoint is one L2 organization in the Fig. 4/5 comparison space.
type DesignPoint struct {
	// Label is the paper's name for the design ("SA-16", "Z4/52", ...),
	// as NewDesignPoint spells it.
	Label  string
	Design sim.Design
	Ways   int
}

// NewDesignPoint returns design d at ways ways under its paper label
// (cache.Spec.Label): "SA-W" hashed, "SAbit-W" bit-selected, "ZW/R" for a
// zcache, so skew is "ZW/W".
func NewDesignPoint(d sim.Design, ways int) DesignPoint {
	return DesignPoint{Label: d.Spec(ways).Label(), Design: d, Ways: ways}
}

// BaselineDesign is the paper's baseline: 4-way set-associative with H3
// index hashing, serial lookup.
func BaselineDesign() DesignPoint {
	return NewDesignPoint(sim.SetAssocH3, 4)
}

// Fig4Designs returns the comparison designs of Fig. 4: 16- and 32-way
// set-associative (hashed), and 4-way zcaches with 1, 2, and 3 levels
// (Z4/4 = skew, Z4/16, Z4/52).
func Fig4Designs() []DesignPoint {
	return []DesignPoint{
		NewDesignPoint(sim.SetAssocH3, 16),
		NewDesignPoint(sim.SetAssocH3, 32),
		NewDesignPoint(sim.SkewAssoc, 4),
		NewDesignPoint(sim.ZCacheL2, 4),
		NewDesignPoint(sim.ZCacheL3, 4),
	}
}

// RunResult is the outcome of one (workload, design, policy, lookup) cell.
type RunResult struct {
	Workload string
	Design   DesignPoint
	Policy   PolicyKind
	Lookup   energy.Lookup
	Metrics  sim.Metrics
	Eval     energy.Result
	// Sampled carries the sampling accuracy report when the cell was
	// produced by sampled execution (Experiment.Sampled); nil for exact
	// cells, and omitted from their stored JSON.
	Sampled *sample.Estimate `json:",omitempty"`
}

// IPC returns the run's mean per-core IPC.
func (r RunResult) IPC() float64 { return r.Eval.IPC }

// MPKI returns the run's L2 misses per kilo-instruction.
func (r RunResult) MPKI() float64 { return r.Eval.L2MPKI }

// Experiment runs simulation cells with capture reuse for trace-driven
// policies, and remembers every cell it computed. Safe for use by one
// goroutine; RunMatrix runs cells in parallel on Lab's bounded worker pool.
type Experiment struct {
	Preset Preset
	// Lab runs RunMatrix's cells, each once. NewExperiment gives it no
	// store and fail-fast; AttachStore adds the content-addressed result
	// store (previously computed cells are served from disk and new cells
	// are checkpointed as they finish, so an interrupted suite resumes and
	// a warm rerun performs zero simulations), and Lab.Quarantine sets
	// failing cells aside instead of aborting. Set its other fields
	// directly to control workers, flushes and progress.
	Lab *runlab.Runner
	// Check enables the simulator invariant checker on every cell
	// (sim.Config.Check): candidate trees are validated per miss and
	// MESI/directory/inclusion invariants at phase boundaries. Checking
	// does not alter results, so cellKey zeroes it: a checked run serves,
	// and is served by, unchecked cells.
	Check bool
	// Sampled, when non-nil, switches every cell to sampled execution:
	// the workload's captured L2 stream is split into intervals,
	// clustered by reuse-distance signature, and only one representative
	// leg per cluster is simulated (internal/sample). cellKey folds the
	// normalized spec into a sampled cell's inputs, so sampled cells get
	// fingerprints disjoint from exact ones and a sampled run can never
	// poison the exact store. OPT cells reject sampling.
	Sampled *sample.Spec

	captures memo[string, *sim.L2Stream]
	plans    memo[string, *sample.Plan]
	legs     memo[legKey, legWalk]
	done     cellMemo

	// onTape, when non-nil, is told of every tape RunMatrix records (+1)
	// and drops (-1). Tests use it to bound the live tapes.
	onTape func(delta int)
}

// memo builds each key's value exactly once, even under concurrent
// callers, and hands every caller the same value and error.
type memo[K comparable, V any] struct {
	mu    sync.Mutex
	slots map[K]*memoSlot[V]
}

type memoSlot[V any] struct {
	once sync.Once
	v    V
	err  error
}

// get returns key's value, calling build the first time the key is asked
// for; concurrent callers of the same key wait for that one build. A build
// that panics is remembered as a *buildPanic error, which every later
// caller gets; the caller whose build panicked panics on.
func (m *memo[K, V]) get(key K, build func() (V, error)) (V, error) {
	m.mu.Lock()
	s, ok := m.slots[key]
	if !ok {
		if m.slots == nil {
			m.slots = map[K]*memoSlot[V]{}
		}
		s = &memoSlot[V]{}
		m.slots[key] = s
	}
	m.mu.Unlock()
	s.once.Do(func() {
		defer func() {
			if r := recover(); r != nil {
				s.err = &buildPanic{val: r}
				panic(r)
			}
		}()
		s.v, s.err = build()
	})
	return s.v, s.err
}

// forget drops key's value, reporting whether it had one; the next get
// builds it afresh.
func (m *memo[K, V]) forget(key K) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.slots[key]
	delete(m.slots, key)
	return ok
}

// buildPanic is a memo build that panicked. Unwrap exposes a panic value
// that is an error (a *check.Violation from -check mode, say) to errors.As.
type buildPanic struct{ val any }

func (p *buildPanic) Error() string { return fmt.Sprintf("panic: %v", p.val) }

func (p *buildPanic) Unwrap() error {
	err, _ := p.val.(error)
	return err
}

// cellMemo holds every cell an Experiment computed successfully, keyed by
// its store fingerprint (cellKey). A failed cell is not kept, so the next
// call computes it again.
type cellMemo struct {
	mu sync.Mutex
	m  map[runlab.Fingerprint]RunResult
}

func (c *cellMemo) get(fp runlab.Fingerprint) (RunResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.m[fp]
	return r, ok
}

func (c *cellMemo) put(fp runlab.Fingerprint, r RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[runlab.Fingerprint]RunResult{}
	}
	c.m[fp] = r
}

// sampledLookups is the lookup axis one sampled leg walk serves. Cache-
// state evolution is lookup-invariant in trace replay, so the walk
// accounts both variants' timing at once and the serial and parallel
// cells of a (workload, design, policy) row cost one walk total.
var sampledLookups = []energy.Lookup{energy.Serial, energy.Parallel}

// legKey addresses one sampled leg walk: everything that changes the
// walk except the lookup axis it already covers.
type legKey struct {
	workload string
	design   string
	policy   PolicyKind
}

// legWalk is one (workload, design, policy) leg walk's outcome: the
// per-lookup extrapolated metrics and the sampling accuracy report.
type legWalk struct {
	ms  []sim.Metrics // indexed like sampledLookups
	est sample.Estimate
}

// NewExperiment returns an experiment harness over the preset.
func NewExperiment(p Preset) *Experiment {
	return &Experiment{Preset: p, Lab: &runlab.Runner{}}
}

// Config assembles the sim configuration for one cell, exactly as Run
// does. Validation tooling uses it to replay captured streams under the
// same configuration the sampled executor saw.
func (e *Experiment) Config(d DesignPoint, pol PolicyKind, lk energy.Lookup) sim.Config {
	cfg := sim.PaperSystem(d.Design, pol, lk, d.Ways)
	cfg.Cores = e.Preset.Cores
	cfg.L2Bytes = e.Preset.L2Bytes
	cfg.L2Banks = e.Preset.L2Banks
	cfg.InstructionsPerCore = e.Preset.InstructionsPerCore
	cfg.WarmupInstructionsPerCore = e.Preset.WarmupInstructionsPerCore
	cfg.Seed = e.Preset.Seed
	cfg.Check = e.Check
	return cfg
}

// streamConfig is the configuration of every design-independent step of a
// workload: building its generators, capturing its L2 stream, recording its
// tape. No design, policy or lookup axis changes what these produce.
func (e *Experiment) streamConfig() sim.Config {
	return e.Config(BaselineDesign(), PolicyLRU, energy.Serial)
}

// generators builds the workload's per-core access streams.
func (e *Experiment) generators(w workloads.Workload) ([]trace.Generator, error) {
	cfg := e.streamConfig()
	return w.Generators(cfg.Cores, cfg.LineBytes, cfg.L2Bytes, cfg.Seed)
}

// Capture returns (building once) the workload's L1-filtered L2 stream —
// the same cached stream Run uses for OPT and sampled cells.
func (e *Experiment) Capture(w workloads.Workload) (*sim.L2Stream, error) {
	return e.captures.get(w.Name, func() (*sim.L2Stream, error) {
		gens, err := e.generators(w)
		if err != nil {
			return nil, err
		}
		return sim.CaptureL2Stream(e.streamConfig(), gens)
	})
}

// samplePlan returns (building once) the workload's sampling plan. The
// plan (interval boundaries, signatures, clusters) depends only on the
// stream, the L2 capacity, and the sampling spec — not on design or
// policy — so it is shared across every cell of the workload's row.
func (e *Experiment) samplePlan(w workloads.Workload, stream *sim.L2Stream) (*sample.Plan, error) {
	return e.plans.get(w.Name, func() (*sample.Plan, error) {
		return sample.BuildPlan(stream, e.Preset.L2Bytes/64, *e.Sampled)
	})
}

// sampledLegs returns (running once) the leg-walk outcome for one
// (workload, design, policy) row, covering every lookup in sampledLookups.
func (e *Experiment) sampledLegs(w workloads.Workload, d DesignPoint, pol PolicyKind) (legWalk, error) {
	return e.legs.get(legKey{workload: w.Name, design: d.Label, policy: pol}, func() (legWalk, error) {
		stream, err := e.Capture(w)
		if err != nil {
			return legWalk{}, fmt.Errorf("capture %s: %w", w.Name, err)
		}
		plan, err := e.samplePlan(w, stream)
		if err != nil {
			return legWalk{}, fmt.Errorf("plan %s: %w", w.Name, err)
		}
		cfg := e.Config(d, pol, sampledLookups[0])
		ms, est, err := sample.RunLookups(cfg, stream, plan, sampledLookups)
		if err != nil {
			return legWalk{}, fmt.Errorf("sampled %s/%s: %w", w.Name, d.Label, err)
		}
		return legWalk{ms: ms, est: est}, nil
	})
}

// runSampled executes one cell in sampled mode: capture (shared per
// workload), plan (shared per workload), then per-cluster representative
// legs through the leg replayer — one walk per (workload, design, policy)
// row serving both lookup variants' cells.
func (e *Experiment) runSampled(w workloads.Workload, d DesignPoint, pol PolicyKind, lk energy.Lookup) (RunResult, error) {
	if pol == PolicyOPT {
		return RunResult{}, fmt.Errorf("zcache: sampled mode cannot run OPT (next-use spans the full stream); drop -sampled for OPT cells")
	}
	walk, err := e.sampledLegs(w, d, pol)
	if err != nil {
		return RunResult{}, err
	}
	i := slices.Index(sampledLookups, lk)
	if i < 0 {
		return RunResult{}, fmt.Errorf("zcache: sampled mode has no %v lookup variant", lk)
	}
	m := walk.ms[i]
	cfg := e.Config(d, pol, lk)
	eval, err := evaluate(cfg, m)
	if err != nil {
		return RunResult{}, err
	}
	est := walk.est
	return RunResult{Workload: w.Name, Design: d, Policy: pol, Lookup: lk,
		Metrics: m, Eval: eval, Sampled: &est}, nil
}

// Run executes one cell. OPT cells replay the workload's captured stream
// (§VI-B); all other policies run execution-driven — unless Sampled is
// set, in which case the cell runs through the sampled executor. A cell
// this Experiment already computed is returned without simulating again.
func (e *Experiment) Run(w workloads.Workload, d DesignPoint, pol PolicyKind, lk energy.Lookup) (RunResult, error) {
	c := MatrixCell{Workload: w, Design: d, Policy: pol, Lookup: lk}
	return e.run(c, e.cellKey(c).Fingerprint(), nil)
}

// run is Run for a cell whose fingerprint is fp. An execution-driven cell
// replays its workload's tape from tapes, or builds fresh generators when
// tapes is nil.
func (e *Experiment) run(c MatrixCell, fp runlab.Fingerprint, tapes *tapeTable) (RunResult, error) {
	if r, ok := e.done.get(fp); ok {
		return r, nil
	}
	r, err := e.compute(c, tapes)
	if err == nil {
		e.done.put(fp, r)
	}
	return r, err
}

// compute simulates one cell; see Run and run.
func (e *Experiment) compute(c MatrixCell, tapes *tapeTable) (RunResult, error) {
	w, d, pol, lk := c.Workload, c.Design, c.Policy, c.Lookup
	if e.Sampled != nil {
		return e.runSampled(w, d, pol, lk)
	}
	cfg := e.Config(d, pol, lk)
	var m sim.Metrics
	if pol == PolicyOPT {
		stream, err := e.Capture(w)
		if err != nil {
			return RunResult{}, fmt.Errorf("capture %s: %w", w.Name, err)
		}
		m, err = sim.ReplayL2(cfg, stream)
		if err != nil {
			return RunResult{}, fmt.Errorf("replay %s/%s: %w", w.Name, d.Label, err)
		}
	} else {
		streams := e.generators
		if tapes != nil {
			streams = tapes.generators
		}
		gens, err := streams(w)
		if err != nil {
			return RunResult{}, err
		}
		sys, err := sim.NewSystem(cfg, gens)
		if err != nil {
			return RunResult{}, err
		}
		m, err = sys.Run()
		if err != nil {
			return RunResult{}, fmt.Errorf("run %s/%s: %w", w.Name, d.Label, err)
		}
	}
	eval, err := evaluate(cfg, m)
	if err != nil {
		return RunResult{}, err
	}
	return RunResult{Workload: w.Name, Design: d, Policy: pol, Lookup: lk, Metrics: m, Eval: eval}, nil
}

// MatrixCell names one cell of a run matrix.
type MatrixCell struct {
	Workload workloads.Workload
	Design   DesignPoint
	Policy   PolicyKind
	Lookup   energy.Lookup
}

// MissingCell identifies one quarantined matrix cell and why it was lost.
type MissingCell struct {
	Index    int
	Workload string
	Design   string
	Policy   PolicyKind
	Lookup   energy.Lookup
	Reason   string
}

// MatrixError reports a matrix run that completed with some cells
// quarantined. The accompanying results slice is valid for every cell
// not listed here (missing cells hold the zero RunResult, recognizable
// by an empty Workload); figure builders degrade to partial output and
// propagate this error so callers can annotate what is absent.
type MatrixError struct {
	Missing []MissingCell
}

func (e *MatrixError) Error() string {
	return fmt.Sprintf("zcache: %d matrix cell(s) missing after quarantine", len(e.Missing))
}

// present reports whether a matrix result slot holds a real result (a
// quarantined cell leaves the zero RunResult behind).
func present(r RunResult) bool { return r.Workload != "" }

// SuiteWorkloads returns the named subset of the 72-workload suite (all of
// it if names is empty).
func SuiteWorkloads(names []string) ([]workloads.Workload, error) {
	if len(names) == 0 {
		return workloads.Suite(), nil
	}
	var out []workloads.Workload
	for _, n := range names {
		w, ok := workloads.ByName(n)
		if !ok {
			return nil, fmt.Errorf("zcache: unknown workload %q", n)
		}
		out = append(out, w)
	}
	return out, nil
}

// cell addresses one matrix cell by its four axes.
type cell struct {
	workload string
	design   DesignPoint
	policy   PolicyKind
	lookup   energy.Lookup
}

// cellMatrix is one run matrix indexed by cell: the workloads it ran, in
// order, and the result of every cell that completed. Quarantined cells are
// absent, so each figure below reads only cells that actually ran.
type cellMatrix struct {
	workloads []workloads.Workload
	results   map[cell]RunResult
}

// matrix runs every named workload × designs × policies × lookups cell,
// listed workload-major in that axis order, and indexes the results. A run
// with quarantined cells returns the partial matrix and its *MatrixError;
// any other failure returns a nil matrix.
func (e *Experiment) matrix(ctx context.Context, names []string, designs []DesignPoint, policies []PolicyKind, lookups []energy.Lookup) (*cellMatrix, error) {
	ws, err := SuiteWorkloads(names)
	if err != nil {
		return nil, err
	}
	var cells []MatrixCell
	for _, w := range ws {
		for _, d := range designs {
			for _, p := range policies {
				for _, lk := range lookups {
					cells = append(cells, MatrixCell{Workload: w, Design: d, Policy: p, Lookup: lk})
				}
			}
		}
	}
	res, err := e.RunMatrix(ctx, cells)
	var merr *MatrixError
	if err != nil && !errors.As(err, &merr) {
		return nil, err
	}
	m := &cellMatrix{workloads: ws, results: map[cell]RunResult{}}
	for i, r := range res {
		if present(r) {
			c := cells[i]
			m.results[cell{c.Workload.Name, c.Design, c.Policy, c.Lookup}] = r
		}
	}
	return m, err
}

// each calls f, in workload order, for every workload on which cell c and
// the reference cell ref both completed; their workload fields are ignored.
func (m *cellMatrix) each(c, ref cell, f func(w workloads.Workload, r, b RunResult)) {
	for _, w := range m.workloads {
		c.workload, ref.workload = w.Name, w.Name
		r, ok := m.results[c]
		b, okB := m.results[ref]
		if ok && okB {
			f(w, r, b)
		}
	}
}

// gains returns c's IPC and MPKI improvements over ref on every workload
// where both completed, each sorted ascending.
func (m *cellMatrix) gains(c, ref cell) (ipc, mpki []float64) {
	m.each(c, ref, func(_ workloads.Workload, r, b RunResult) {
		ipc = append(ipc, safeRatio(r.IPC(), b.IPC()))
		mpki = append(mpki, safeRatio(b.MPKI(), r.MPKI()))
	})
	sort.Float64s(ipc)
	sort.Float64s(mpki)
	return ipc, mpki
}

// Fig4Line is one design's sorted per-workload improvements over the
// baseline (the monotone lines of Fig. 4).
type Fig4Line struct {
	Design DesignPoint
	// MPKIImprovement[i] is baselineMPKI/designMPKI for the i-th
	// workload after sorting ascending (≥1 = fewer misses).
	MPKIImprovement []float64
	// IPCImprovement[i] is designIPC/baselineIPC, sorted ascending.
	IPCImprovement []float64
}

// Fig4 runs the Fig. 4 experiment: every workload on the baseline and each
// comparison design under the given policy (the paper shows OPT in 4a and
// LRU in 4b), returning one sorted line per design.
func (e *Experiment) Fig4(ctx context.Context, names []string, pol PolicyKind) ([]Fig4Line, error) {
	base := cell{design: BaselineDesign(), policy: pol, lookup: energy.Serial}
	m, err := e.matrix(ctx, names, append([]DesignPoint{base.design}, Fig4Designs()...),
		[]PolicyKind{pol}, []energy.Lookup{energy.Serial})
	if m == nil {
		return nil, err
	}
	var lines []Fig4Line
	for _, d := range Fig4Designs() {
		line := Fig4Line{Design: d}
		c := base
		c.design = d
		line.IPCImprovement, line.MPKIImprovement = m.gains(c, base)
		lines = append(lines, line)
	}
	return lines, err
}

// safeRatio returns num/den, treating a zero denominator as equality when
// the numerator is also zero (no-miss workloads) and as a large gain
// otherwise.
func safeRatio(num, den float64) float64 {
	if den == 0 {
		if num == 0 {
			return 1
		}
		return 100
	}
	return num / den
}

// Fig5Cell is one bar of Fig. 5: a design × lookup's IPC and BIPS/W
// improvements over the serial SA-4 baseline, for one workload or
// aggregate.
type Fig5Cell struct {
	Workload string // workload name, "geomean-all", "geomean-<class>" or "geomean-top10"
	Design   DesignPoint
	Lookup   energy.Lookup
	IPCGain  float64
	EffGain  float64 // BIPS/W ratio
}

// Fig5Representatives are the five workloads the paper plots individually.
var Fig5Representatives = []string{"ammp", "gamess", "cpu2006rand00", "canneal", "cactusADM"}

// Fig5 runs the Fig. 5 experiment under the given policy: all suite
// workloads, every design × {serial, parallel}, reporting the five
// representative workloads plus geomeans over the full suite, over each
// workload class and over the ten most L2 miss-intensive workloads.
func (e *Experiment) Fig5(ctx context.Context, names []string, pol PolicyKind) ([]Fig5Cell, error) {
	designs := append([]DesignPoint{BaselineDesign()}, Fig4Designs()...)
	lookups := []energy.Lookup{energy.Serial, energy.Parallel}
	m, err := e.matrix(ctx, names, designs, []PolicyKind{pol}, lookups)
	if m == nil {
		return nil, err
	}
	// Baseline is serial SA-4.
	base := cell{design: designs[0], policy: pol, lookup: energy.Serial}

	// Top-10 miss-intensive workloads by baseline MPKI (§VI). A
	// quarantined baseline reads as the zero RunResult and scores 0,
	// keeping the workload out of the top-K set rather than failing the
	// figure.
	ws := m.workloads
	mpki := make([]float64, len(ws))
	for i, w := range ws {
		mpki[i] = m.results[cell{w.Name, base.design, base.policy, base.lookup}].MPKI()
	}
	top := map[string]bool{}
	for _, i := range stats.TopKIndices(mpki, min(10, len(ws))) {
		top[ws[i].Name] = true
	}

	type group struct{ ipc, eff []float64 }
	var out []Fig5Cell
	for _, d := range designs {
		for _, lk := range lookups {
			c := cell{design: d, policy: pol, lookup: lk}
			if c == base {
				continue // the baseline itself
			}
			// Geomean groups, in order of first appearance: every workload,
			// each workload class (§VI-C), and the top-10 set.
			var order []string
			groups := map[string]*group{}
			add := func(name string, ipc, eff float64) {
				g, ok := groups[name]
				if !ok {
					g = &group{}
					groups[name] = g
					order = append(order, name)
				}
				g.ipc, g.eff = append(g.ipc, ipc), append(g.eff, eff)
			}
			m.each(c, base, func(w workloads.Workload, r, b RunResult) {
				ipc, eff := safeRatio(r.IPC(), b.IPC()), safeRatio(r.Eval.BIPSPerW, b.Eval.BIPSPerW)
				add("geomean-all", ipc, eff)
				add("geomean-"+w.Class.String(), ipc, eff)
				if top[w.Name] {
					add("geomean-top10", ipc, eff)
				}
				if slices.Contains(Fig5Representatives, w.Name) {
					out = append(out, Fig5Cell{Workload: w.Name, Design: d, Lookup: lk, IPCGain: ipc, EffGain: eff})
				}
			})
			for _, name := range order {
				ipc, err := stats.GeoMean(groups[name].ipc)
				if err != nil {
					return nil, err
				}
				eff, err := stats.GeoMean(groups[name].eff)
				if err != nil {
					return nil, err
				}
				out = append(out, Fig5Cell{Workload: name, Design: d, Lookup: lk, IPCGain: ipc, EffGain: eff})
			}
		}
	}
	return out, err
}

// PolicyStudyLine is one policy's sorted per-workload IPC improvements on a
// fixed Z4/52 array, against the same array under bucketed LRU — the
// "associativity and replacement policy are separate issues" experiment the
// paper's §II sets up and defers (§VIII: policies suited to the zcache).
type PolicyStudyLine struct {
	Policy          PolicyKind
	IPCImprovement  []float64
	MPKIImprovement []float64
}

// PolicyStudy runs every workload on the Z4/52 design under each policy and
// returns sorted improvement lines vs the bucketed-LRU reference.
func (e *Experiment) PolicyStudy(ctx context.Context, names []string, policies []PolicyKind) ([]PolicyStudyLine, error) {
	ref := cell{design: NewDesignPoint(sim.ZCacheL3, 4), policy: PolicyBucketedLRU, lookup: energy.Serial}
	m, err := e.matrix(ctx, names, []DesignPoint{ref.design},
		append([]PolicyKind{ref.policy}, policies...), []energy.Lookup{ref.lookup})
	if m == nil {
		return nil, err
	}
	var out []PolicyStudyLine
	for _, p := range policies {
		line := PolicyStudyLine{Policy: p}
		c := ref
		c.policy = p
		line.IPCImprovement, line.MPKIImprovement = m.gains(c, ref)
		out = append(out, line)
	}
	return out, err
}

// BandwidthPoint is one workload's §VI-D bandwidth observation on the
// Z4/52 design.
type BandwidthPoint struct {
	Workload string
	// DemandLoad is core accesses/cycle/bank; TagLoad adds walk lookups.
	DemandLoad float64
	TagLoad    float64
	// MissesPerCyclePerBank positions the point on the self-throttling
	// curve.
	MissesPerCyclePerBank float64
}

// Bandwidth runs the §VI-D array-bandwidth study: every workload on the
// Z4/52 design under bucketed LRU, reporting per-bank loads.
func (e *Experiment) Bandwidth(ctx context.Context, names []string) ([]BandwidthPoint, error) {
	c := cell{design: NewDesignPoint(sim.ZCacheL3, 4), policy: PolicyBucketedLRU, lookup: energy.Serial}
	m, err := e.matrix(ctx, names, []DesignPoint{c.design}, []PolicyKind{c.policy}, []energy.Lookup{c.lookup})
	if m == nil {
		return nil, err
	}
	var out []BandwidthPoint
	for _, w := range m.workloads {
		c.workload = w.Name
		r, ok := m.results[c]
		if !ok {
			continue
		}
		mpcb := 0.0
		if r.Metrics.Counts.Cycles > 0 {
			mpcb = float64(r.Metrics.Counts.L2Misses) / float64(r.Metrics.Counts.Cycles) / float64(e.Preset.L2Banks)
		}
		out = append(out, BandwidthPoint{
			Workload:              r.Workload,
			DemandLoad:            r.Metrics.BankDemandLoad,
			TagLoad:               r.Metrics.BankTagLoad,
			MissesPerCyclePerBank: mpcb,
		})
	}
	return out, err
}

// Fig3Case is one measured associativity distribution of Fig. 3.
type Fig3Case struct {
	Label    string
	Workload string
	// Candidates is the design's nominal replacement-candidate count
	// (the n of the uniformity curve it is compared against).
	Candidates int
	Dist       Distribution
	// KSvsUniform quantifies the §IV-C "close match" claim.
	KSvsUniform float64
}

// Fig3Workloads are the per-workload lines of Fig. 3 (six benchmarks from
// the paper's selection).
var Fig3Workloads = []string{"wupwise", "apsi", "mgrid", "canneal", "fluidanimate", "blackscholes"}

// Fig3 measures the associativity distribution of each design in panel on
// each named workload (Fig3Workloads when names is empty). The paper's
// panels are 3a DesignSetAssociative, 3b DesignSetAssociativeHashed, 3c
// skew-associative (DesignZCache at WalkLevels 1) and 3d DesignZCache. A
// panel Config names its design by Design, Ways, WalkLevels and Hash; Fig3
// sizes it to the preset's L2 with 64-byte lines and runs it under LRU with
// the preset's seed. The L2-scale single-cache measurement drives the
// workload's merged L2-level stream (captured through the L1s) into the
// instrumented cache.
func (e *Experiment) Fig3(panel []Config, names []string) ([]Fig3Case, error) {
	if len(names) == 0 {
		names = Fig3Workloads
	}
	ws, err := SuiteWorkloads(names)
	if err != nil {
		return nil, err
	}
	var out []Fig3Case
	for _, w := range ws {
		stream, err := e.Capture(w)
		if err != nil {
			return nil, err
		}
		for _, cfg := range panel {
			c, cands, label, err := e.fig3Cache(cfg)
			if err != nil {
				return nil, err
			}
			m := c.Policy().(*Instrumented)
			for _, ref := range stream.Refs {
				c.Access(ref.Line<<6, ref.Write)
			}
			dist := m.Measured(fmt.Sprintf("%s/%s", label, w.Name))
			ks := -1.0
			if dist.CDF != nil {
				ks, err = assoc.KS(dist, assoc.Uniform(cands, assoc.DefaultBins))
				if err != nil {
					return nil, err
				}
			}
			out = append(out, Fig3Case{
				Label:       label,
				Workload:    w.Name,
				Candidates:  cands,
				Dist:        dist,
				KSvsUniform: ks,
			})
		}
	}
	return out, nil
}

// fig3Cache builds one instrumented single-cache design for Fig. 3.
func (e *Experiment) fig3Cache(cfg Config) (*Cache, int, string, error) {
	cfg.CapacityBytes, cfg.LineBytes, cfg.Policy, cfg.Seed = e.Preset.L2Bytes, 64, PolicyLRU, e.Preset.Seed
	if cfg.Label() == "" {
		return nil, 0, "", fmt.Errorf("zcache: design %d is not a Fig. 3 design", cfg.Design)
	}
	cands := cfg.Ways
	if l := cfg.spec(0).WalkLevels(); l > 0 {
		cands = ReplacementCandidates(cfg.Ways, l)
	}
	blocks := int(cfg.CapacityBytes / cfg.LineBytes)
	pol, err := cfg.Policy.New(blocks, cfg.Seed)
	if err != nil {
		return nil, 0, "", err
	}
	m, err := Instrument(pol, blocks, 0)
	if err != nil {
		return nil, 0, "", err
	}
	c, err := NewWithPolicy(cfg, m)
	if err != nil {
		return nil, 0, "", err
	}
	return c, cands, cfg.Label(), nil
}
