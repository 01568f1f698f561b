package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"zcache"
	"zcache/internal/failpoint"
	"zcache/internal/repl"
	"zcache/internal/runlab"
	"zcache/internal/sample"
	"zcache/internal/stats"
)

// suite computes one figure's matrix over the workload subset (nil: all 72)
// and renders it to w, partial figures included. It returns the number of
// quarantined cells the rendering lists as missing.
type suite func(ctx context.Context, w io.Writer, e *zcache.Experiment, subset []string, pol repl.Kind) (int, error)

// suiteOrder is what `-suite all` runs, in order.
var suiteOrder = []string{"fig4", "fig5", "bw", "headline", "policies"}

var suites = map[string]suite{
	"fig4":     fig4,
	"fig5":     fig5,
	"bw":       bandwidth,
	"headline": headline,
	"policies": policyStudy,
}

func (c *cli) runSuites(args []string) error {
	sh := newShared()
	fs := c.flagSet("run")
	sh.register(fs, "store", "preset", "policy", "workloads", "check", "quarantine", "sampled", "intervals", "clusters", "prof")
	suiteFlag := fs.String("suite", "all", "comma-separated: "+strings.Join(suiteOrder, ", ")+", or all")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS); also the dispatch window, in workloads, of exact execution-driven cells, so at most 2x this many workloads' tapes are held at once")
	failpoints := fs.String("failpoints", "", "fault injection, e.g. 'runlab/compute=panic:p=0.2;runlab/store/append=torn'")
	failSeed := fs.Uint64("fail-seed", 1, "seed for deterministic failpoint firing")
	if err := parse(fs, args); err != nil {
		return err
	}

	preset, err := sh.presetValue()
	if err != nil {
		return err
	}
	pol, err := sh.policyValue()
	if err != nil {
		return err
	}
	if sh.sampled && pol == repl.KindOPT {
		return usagef("-sampled cannot run OPT (next-use spans the full stream); drop -sampled or pick another policy")
	}
	subset, err := sh.subset()
	if err != nil {
		return err
	}
	names := suiteOrder
	if *suiteFlag != "all" {
		names = strings.Split(*suiteFlag, ",")
		for i, n := range names {
			names[i] = strings.TrimSpace(n)
			if suites[names[i]] == nil {
				return usagef("unknown suite %q", n)
			}
		}
	}

	if *failpoints != "" {
		if err := failpoint.Configure(*failpoints, *failSeed); err != nil {
			return usagef("%v", err)
		}
		defer failpoint.Reset()
		c.log.Printf("failpoints armed (seed %d): %s", *failSeed, *failpoints)
	}
	stopProf, err := sh.prof.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			c.log.Print(err)
		}
	}()

	// Ctrl-C checkpoints completed cells; rerunning the same command
	// resumes from them.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	e := zcache.NewExperiment(preset)
	var st *runlab.Store
	if sh.store != "" {
		if st, err = e.AttachStore(sh.store); err != nil {
			return err
		}
		before, err := st.Stats()
		if err != nil {
			return err
		}
		c.log.Printf("store %s: %d cells on disk", sh.store, before.Cells)
	}
	if sh.sampled {
		e.Sampled = &sample.Spec{Intervals: sh.intervals, Clusters: sh.clusters}
		spec := e.Sampled.Normalized()
		c.log.Printf("sampled execution: %d intervals, %d clusters (fingerprints disjoint from exact cells)",
			spec.Intervals, spec.Clusters)
	}
	e.Check = sh.check
	e.Lab.Quarantine = sh.quarantine
	e.Lab.Workers = *workers
	e.Lab.OnProgress = c.progressMeter()

	start := time.Now()
	missing := 0
	for _, name := range names {
		e.Lab.Label = name + "/" + sh.policy
		n, err := suites[name](ctx, c.stdout, e, subset, pol)
		if err != nil {
			c.clearProgress()
			if ctx.Err() != nil {
				c.log.Printf("interrupted; completed cells are checkpointed — rerun the same command to resume")
			}
			return err
		}
		missing += n
	}
	p := e.Lab.Last()
	took := time.Since(start).Round(time.Millisecond)
	if st == nil {
		c.log.Printf("suites complete in %s without a store (last matrix: %d computed)", took, p.Computed)
	} else {
		after, err := st.Stats()
		if err != nil {
			return err
		}
		c.log.Printf("suites complete in %s (last matrix: %d cached, %d computed); store now %d cells / %d shards / %.1f MB",
			took, p.Cached, p.Computed, after.Cells, after.Shards, float64(after.Bytes)/1e6)
	}
	if missing > 0 {
		return &exitErr{code: 4, msg: fmt.Sprintf("%d cell(s) quarantined; figures above are partial (rerun to backfill, `runlab status` for history)", missing)}
	}
	// Corrupt store lines surface as exit 3 even when every figure
	// rendered: their cells were recomputed rather than served.
	if st != nil && st.Corrupt() > 0 {
		return &exitErr{code: 3, msg: fmt.Sprintf("%d corrupt store line(s) detected; `runlab gc` compacts them away", st.Corrupt())}
	}
	return nil
}

// progressMeter writes a throttled single-line progress meter to stderr:
// cells done/cached/failed, rate, and ETA. It erases itself when the matrix
// completes, so the figure printed next starts on a clean line.
func (c *cli) progressMeter() func(runlab.Progress) {
	var (
		mu        sync.Mutex // workers report concurrently
		lastPrint time.Time
	)
	return func(p runlab.Progress) {
		mu.Lock()
		defer mu.Unlock()
		if p.Done+p.Failed >= p.Total {
			c.clearProgress()
			return
		}
		if time.Since(lastPrint) < 200*time.Millisecond {
			return
		}
		lastPrint = time.Now()
		eta := "?"
		if p.ETA > 0 {
			eta = p.ETA.Round(time.Second).String()
		}
		quar := ""
		if p.Quarantined > 0 {
			quar = fmt.Sprintf(", quarantined %d", p.Quarantined)
		}
		fmt.Fprintf(c.stderr, "\r\033[Kcells %d/%d (cached %d, computed %d, failed %d%s)  %.1f cells/s  ETA %s",
			p.Done, p.Total, p.Cached, p.Computed, p.Failed, quar, p.CellsPerSec, eta)
	}
}

func (c *cli) clearProgress() { fmt.Fprint(c.stderr, "\r\033[K") }

// partial separates graceful-degradation errors from fatal ones: a
// *zcache.MatrixError means the matrix completed with quarantined holes
// and the figure should render what it has.
func partial(err error) (*zcache.MatrixError, error) {
	var merr *zcache.MatrixError
	if errors.As(err, &merr) {
		return merr, nil
	}
	return nil, err
}

// reportMissing annotates a partial figure with exactly which cells are
// absent and why, so a rendered figure can never silently drop data.
// Returns the number of missing cells.
func reportMissing(w io.Writer, merr *zcache.MatrixError) int {
	if merr == nil {
		return 0
	}
	fmt.Fprintf(w, "\nMISSING CELLS (%d — quarantined, not rendered):\n", len(merr.Missing))
	t := stats.NewTable("workload", "design", "policy", "lookup", "reason")
	for _, m := range merr.Missing {
		reason := m.Reason
		if reason == "" {
			reason = "not computed"
		}
		t.AddRow(m.Workload, m.Design, m.Policy.String(), m.Lookup.String(), reason)
	}
	fmt.Fprint(w, t.String())
	return len(merr.Missing)
}

// policyStudy fixes the array (Z4/52) and sweeps replacement policies — the
// §II/§VIII orthogonality experiment the paper defers.
func policyStudy(ctx context.Context, w io.Writer, e *zcache.Experiment, subset []string, _ repl.Kind) (int, error) {
	fmt.Fprintf(w, "Policy study (Z4/52 array fixed, %s preset): per-workload IPC and MPKI\n", e.Preset.Name)
	fmt.Fprintln(w, "improvements vs the same array under bucketed LRU, sorted per policy.")
	policies := []repl.Kind{repl.KindLRU, repl.KindSRRIP, repl.KindDRRIP, repl.KindLFU, repl.KindRandom}
	lines, err := e.PolicyStudy(ctx, subset, policies)
	merr, err := partial(err)
	if err != nil {
		return 0, err
	}
	if len(lines) == 0 || len(lines[0].IPCImprovement) == 0 {
		fmt.Fprintln(w, "\n(no complete policy lines to render)")
		return reportMissing(w, merr), nil
	}
	labels := make([]string, len(lines))
	mpki, ipc := make([][]float64, len(lines)), make([][]float64, len(lines))
	for i, l := range lines {
		labels[i], mpki[i], ipc[i] = l.Policy.String(), l.MPKIImprovement, l.IPCImprovement
	}
	fmt.Fprintln(w, "\nMPKI improvement vs bucketed LRU:")
	lineTable(w, labels, mpki, 12, false)
	fmt.Fprintln(w, "\nIPC improvement vs bucketed LRU:")
	lineTable(w, labels, ipc, 12, false)
	fmt.Fprintln(w, "\nThe array supplies 52 candidates regardless; the policy decides what they")
	fmt.Fprintln(w, "are worth. Random pays for ignoring recency; DRRIP's dueling insertion is")
	fmt.Fprintln(w, "the §VIII direction (a policy that needs no set ordering).")
	return reportMissing(w, merr), nil
}

func fig4(ctx context.Context, w io.Writer, e *zcache.Experiment, subset []string, pol repl.Kind) (int, error) {
	fmt.Fprintf(w, "Fig. 4 (%v, %s preset): improvements over the serial SA-4+H3 baseline.\n", pol, e.Preset.Name)
	fmt.Fprintln(w, "Workloads sorted per design (x-axis of the paper's monotone lines).")
	lines, err := e.Fig4(ctx, subset, pol)
	merr, err := partial(err)
	if err != nil {
		return 0, err
	}
	fmt.Fprintln(w, "\nL2 MPKI improvement (baseline/design; >1 = fewer misses):")
	printLines(w, lines, func(l zcache.Fig4Line) []float64 { return l.MPKIImprovement })
	fmt.Fprintln(w, "\nIPC improvement (design/baseline; >1 = faster):")
	printLines(w, lines, func(l zcache.Fig4Line) []float64 { return l.IPCImprovement })
	for _, l := range lines {
		worse := 0
		for _, v := range l.IPCImprovement {
			if v < 1 {
				worse++
			}
		}
		fmt.Fprintf(w, "%-6s: IPC worse than baseline on %d/%d workloads\n", l.Design.Label, worse, len(l.IPCImprovement))
	}
	return reportMissing(w, merr), nil
}

func printLines(w io.Writer, lines []zcache.Fig4Line, get func(zcache.Fig4Line) []float64) {
	if len(lines) == 0 {
		return
	}
	labels, series := make([]string, len(lines)), make([][]float64, len(lines))
	for i, l := range lines {
		labels[i], series[i] = l.Design.Label, get(l)
	}
	lineTable(w, labels, series, 24, true)
}

// lineTable renders sorted per-design (or per-policy) lines as one table:
// every (n/rows)-th workload index, plus the last one again when withMax is
// set. Quarantined cells can leave lines of uneven length; only the indices
// every line has are rendered.
func lineTable(w io.Writer, labels []string, lines [][]float64, rows int, withMax bool) {
	n := len(lines[0])
	for _, l := range lines {
		n = min(n, len(l))
	}
	if n == 0 {
		fmt.Fprintln(w, "(no complete lines to render)")
		return
	}
	t := stats.NewTable(append([]string{"workload#"}, labels...)...)
	addRow := func(i int) {
		row := []interface{}{i}
		for _, l := range lines {
			row = append(row, l[i])
		}
		t.AddRow(row...)
	}
	for i := 0; i < n; i += max(n/rows, 1) {
		addRow(i)
	}
	if withMax {
		addRow(n - 1)
	}
	fmt.Fprint(w, t.String())
}

func fig5(ctx context.Context, w io.Writer, e *zcache.Experiment, subset []string, pol repl.Kind) (int, error) {
	fmt.Fprintf(w, "Fig. 5 (%v, %s preset): IPC and BIPS/W vs the serial SA-4+H3 baseline.\n\n", pol, e.Preset.Name)
	cells, err := e.Fig5(ctx, subset, pol)
	merr, err := partial(err)
	if err != nil {
		return 0, err
	}
	sort.SliceStable(cells, func(i, j int) bool {
		if cells[i].Workload != cells[j].Workload {
			return cells[i].Workload < cells[j].Workload
		}
		if cells[i].Design.Label != cells[j].Design.Label {
			return cells[i].Design.Label < cells[j].Design.Label
		}
		return cells[i].Lookup < cells[j].Lookup
	})
	t := stats.NewTable("workload", "design", "lookup", "IPC gain", "BIPS/W gain")
	for _, c := range cells {
		t.AddRow(c.Workload, c.Design.Label, c.Lookup.String(), c.IPCGain, c.EffGain)
	}
	fmt.Fprint(w, t.String())
	return reportMissing(w, merr), nil
}

func bandwidth(ctx context.Context, w io.Writer, e *zcache.Experiment, subset []string, _ repl.Kind) (int, error) {
	fmt.Fprintf(w, "§VI-D (Z4/52, bucketed LRU, %s preset): per-bank array load.\n\n", e.Preset.Name)
	pts, err := e.Bandwidth(ctx, subset)
	merr, err := partial(err)
	if err != nil {
		return 0, err
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].DemandLoad > pts[j].DemandLoad })
	t := stats.NewTable("workload", "demand acc/cyc/bank", "total tag acc/cyc/bank", "misses/cyc/bank")
	for i, p := range pts {
		if i < 15 || p.MissesPerCyclePerBank > 0.004 {
			t.AddRow(p.Workload, p.DemandLoad, p.TagLoad, p.MissesPerCyclePerBank)
		}
	}
	fmt.Fprint(w, t.String())
	max := 0.0
	for _, p := range pts {
		if p.DemandLoad > max {
			max = p.DemandLoad
		}
	}
	fmt.Fprintf(w, "\nmax average demand load: %.3f acc/cyc/bank (paper: 0.152)\n", max)
	// Self-throttling: demand load at high-miss points.
	var hiMissLoad, hiMissTag float64
	n := 0
	for _, p := range pts {
		if p.MissesPerCyclePerBank >= 0.004 {
			hiMissLoad += p.DemandLoad
			hiMissTag += p.TagLoad
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(w, "at ≥0.004 misses/cyc/bank (n=%d): avg demand %.3f, avg total tag %.3f acc/cyc/bank\n",
			n, hiMissLoad/float64(n), hiMissTag/float64(n))
		fmt.Fprintln(w, "(paper at 0.005 misses/cyc/bank: demand 0.035, total tag 0.092 — the system self-throttles)")
	}
	return reportMissing(w, merr), nil
}

func headline(ctx context.Context, w io.Writer, e *zcache.Experiment, subset []string, _ repl.Kind) (int, error) {
	fmt.Fprintf(w, "Headline claims (§I, §VIII) under bucketed LRU, %s preset:\n\n", e.Preset.Name)
	cells, err := e.Fig5(ctx, subset, repl.KindBucketedLRU)
	merr, err := partial(err)
	if err != nil {
		return 0, err
	}
	// Every claim compares parallel-lookup cells.
	find := func(wl string, d zcache.DesignPoint) (zcache.Fig5Cell, bool) {
		for _, c := range cells {
			if c.Workload == wl && c.Design == d && c.Lookup == zcache.ParallelLookup {
				return c, true
			}
		}
		return zcache.Fig5Cell{}, false
	}
	z, sa4 := zcache.NewDesignPoint(zcache.SimZCache3, 4), zcache.BaselineDesign()
	sa32 := zcache.NewDesignPoint(zcache.SimSetAssociativeHashed, 32)
	t := stats.NewTable("claim", "measured IPC", "measured BIPS/W", "paper IPC", "paper BIPS/W")
	if c, ok := find("geomean-top10", z); ok {
		t.AddRow(z.Label+" vs "+sa4.Label+" (top-10 miss-intensive)", c.IPCGain, c.EffGain, "1.18", "1.13")
		if s, ok2 := find("geomean-top10", sa32); ok2 {
			t.AddRow(z.Label+" vs "+sa32.Label+" (top-10 miss-intensive)", c.IPCGain/s.IPCGain, c.EffGain/s.EffGain, "1.07", "1.10")
		}
	}
	if c, ok := find("geomean-all", z); ok {
		t.AddRow(z.Label+" vs "+sa4.Label+" (all workloads)", c.IPCGain, c.EffGain, "1.07", "1.03")
	}
	fmt.Fprint(w, t.String())
	return reportMissing(w, merr), nil
}
