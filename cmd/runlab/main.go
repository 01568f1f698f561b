// Command runlab drives the paper's evaluation matrix through the
// content-addressed result store, making figure-suite runs incremental
// and resumable:
//
//	runlab run [-preset quick] [-suite all] [-policy lru] ...  # populate the store
//	runlab status                                              # store + run history
//	runlab gc                                                  # drop stale/corrupt records
//	runlab repair                                              # rewrite corrupt shards
//
// `run` checkpoints completed cells as it goes; Ctrl-C (or a crash)
// loses at most one flush interval of work, and re-invoking the same
// command resumes from the cells already on disk. A fully warm rerun
// performs zero simulations.
//
// Exit codes: 0 success, 1 error, 2 usage, 3 store corruption detected,
// 4 cells quarantined (partial results).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"zcache"
	"zcache/internal/failpoint"
	"zcache/internal/prof"
	"zcache/internal/runlab"
	"zcache/internal/sample"
	"zcache/internal/sim"
	"zcache/internal/stats"
)

// exitErr carries a specific process exit code alongside the message.
type exitErr struct {
	code int
	msg  string
}

func (e *exitErr) Error() string { return e.msg }

func main() {
	log.SetFlags(0)
	log.SetPrefix("runlab: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "validate-sampled":
		err = cmdValidateSampled(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "repair":
		err = cmdRepair(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Print(err)
		var xe *exitErr
		if errors.As(err, &xe) {
			os.Exit(xe.code)
		}
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: runlab <verb> [flags]

verbs:
  run               execute experiment suites through the resumable runner
  validate-sampled  check sampled execution's work and error against the exact suite
  status            show store contents and run history
  gc                compact the store, dropping stale-schema and corrupt records
  repair            rewrite corrupt shards from surviving records

run flags:
  -store DIR      result store (default %s)
  -preset NAME    test | quick | full (default quick)
  -suite LIST     comma-separated: fig4, fig5, bw, policies, or all (default all)
  -policy NAME    lru | lru-full | opt | random | lfu | srrip | drrip (default lru)
  -workloads LIST comma-separated workload subset (default: all 72)
  -workers N      concurrent cells (default GOMAXPROCS)
  -flush-every N  checkpoint interval in cells (default 16)
  -check          enable simulator invariant checks (MESI, inclusion, walk legality)
  -quarantine     keep running past persistently failing cells; exit 4 with partial results
  -durable        fsync store appends and flushes (crash-consistent checkpoints)
  -strict         treat any corrupt store record as fatal instead of tolerating it
  -max-attempts N attempts per cell before it fails/quarantines (default 2)
  -cell-timeout D per-attempt deadline, e.g. 90s (default none)
  -backoff D      base retry backoff, doubled per retry with deterministic jitter (default 0)
  -failpoints SPEC  fault injection, e.g. 'runlab/compute=panic:p=0.2;runlab/store/append=torn'
  -fail-seed N    deterministic seed for failpoint coin flips (default 1)
  -sampled        run cells through sampled execution (representative interval legs);
                  sampled cells get fingerprints disjoint from exact cells
  -intervals N    sampled: interval count (default 32)
  -clusters K     sampled: cluster/leg count (default 12)

validate-sampled flags:
  -preset NAME     test | quick | full (default test)
  -policy NAME     replacement policy (default lru; opt is not sampleable)
  -workloads LIST  comma-separated subset (default: the 8 bench-suite workloads)
  -intervals N     interval count (default 32)
  -clusters K      cluster/leg count (default 12)
  -max-rel-err F   per-cell miss-ratio error bound vs full replay (default 0.02)

run also accepts the profiling flags:
  -cpuprofile FILE  write a CPU profile (go tool pprof)
  -memprofile FILE  write a heap profile on exit
  -trace FILE       write an execution trace (go tool trace)

exit codes:
  0  success
  1  runtime error
  2  usage error
  3  store corruption detected (run 'runlab repair')
  4  cells quarantined; results are partial (rerun to retry)
`, zcache.DefaultStoreDir)
}

func parsePreset(name string) (zcache.Preset, error) {
	switch name {
	case "test":
		return zcache.TestPreset(), nil
	case "quick":
		return zcache.QuickPreset(), nil
	case "full":
		return zcache.FullPreset(), nil
	default:
		return zcache.Preset{}, fmt.Errorf("unknown preset %q", name)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	store := fs.String("store", zcache.DefaultStoreDir, "result store directory")
	presetFlag := fs.String("preset", "quick", "test | quick | full")
	suite := fs.String("suite", "all", "comma-separated: fig4, fig5, bw, policies, or all")
	policyFlag := fs.String("policy", "lru", "replacement policy for fig4/fig5")
	workloadsFlag := fs.String("workloads", "", "comma-separated workload subset")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
	flushEvery := fs.Int("flush-every", 0, "checkpoint interval in cells (0 = default)")
	checkFlag := fs.Bool("check", false, "enable simulator invariant checks")
	quarantine := fs.Bool("quarantine", false, "quarantine failing cells instead of aborting the run")
	durable := fs.Bool("durable", false, "fsync store appends and flushes")
	strict := fs.Bool("strict", false, "treat corrupt store records as fatal")
	maxAttempts := fs.Int("max-attempts", 0, "attempts per cell (0 = default 2)")
	cellTimeout := fs.Duration("cell-timeout", 0, "per-attempt deadline (0 = none)")
	backoff := fs.Duration("backoff", 0, "base retry backoff (0 = immediate retry)")
	failpoints := fs.String("failpoints", "", "failpoint spec, e.g. 'name=mode:p=0.5;...'")
	failSeed := fs.Uint64("fail-seed", 1, "seed for deterministic failpoint firing")
	sampledFlag := fs.Bool("sampled", false, "run cells through sampled execution")
	intervals := fs.Int("intervals", 0, "sampled: interval count (0 = default 32)")
	clusters := fs.Int("clusters", 0, "sampled: cluster/leg count (0 = default 12)")
	var pf prof.Flags
	pf.Register(fs)
	fs.Parse(args)

	if *failpoints != "" {
		if err := failpoint.Configure(*failpoints, *failSeed); err != nil {
			return err
		}
		defer failpoint.Reset()
		log.Printf("failpoints armed (seed %d): %s", *failSeed, *failpoints)
	}

	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer func() {
		if err := stopProf(); err != nil {
			log.Print(err)
		}
	}()

	preset, err := parsePreset(*presetFlag)
	if err != nil {
		return err
	}
	pol, err := sim.ParsePolicy(*policyFlag)
	if err != nil {
		return err
	}
	if *sampledFlag && pol == sim.PolicyOPT {
		return fmt.Errorf("-sampled cannot run OPT (next-use spans the full stream); drop -sampled or pick another policy")
	}
	var subset []string
	if *workloadsFlag != "" {
		subset = strings.Split(*workloadsFlag, ",")
	}
	suites := strings.Split(*suite, ",")
	if *suite == "all" {
		suites = []string{"fig4", "fig5", "bw", "policies"}
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	e := zcache.NewExperiment(preset)
	st, err := e.AttachStoreOptions(*store, runlab.Options{Durable: *durable, Strict: *strict})
	if err != nil {
		return err
	}
	if *sampledFlag {
		e.Sampled = &sample.Spec{Intervals: *intervals, Clusters: *clusters}
		spec := e.Sampled.Normalized()
		log.Printf("sampled execution: %d intervals, %d clusters (fingerprints disjoint from exact cells)",
			spec.Intervals, spec.Clusters)
	}
	e.Check = *checkFlag
	e.Quarantine = *quarantine
	e.Lab.Workers = *workers
	e.Lab.FlushEvery = *flushEvery
	e.Lab.MaxAttempts = *maxAttempts
	e.Lab.CellTimeout = *cellTimeout
	e.Lab.BackoffBase = *backoff
	e.Lab.OnProgress = progressPrinter()

	before, err := st.Stats()
	if err != nil {
		return err
	}
	log.Printf("store %s: %d cells on disk", *store, before.Cells)

	start := time.Now()
	missingTotal := 0
	for _, name := range suites {
		e.Lab.Label = name + "/" + *policyFlag
		switch strings.TrimSpace(name) {
		case "fig4":
			if _, err = e.Fig4(ctx, subset, pol); err == nil {
				log.Printf("fig4 (%s): done", *policyFlag)
			}
		case "fig5":
			if _, err = e.Fig5(ctx, subset, pol); err == nil {
				log.Printf("fig5 (%s): done", *policyFlag)
			}
		case "bw":
			if _, err = e.Bandwidth(ctx, subset); err == nil {
				log.Printf("bw: done")
			}
		case "policies":
			policies := []sim.Policy{sim.PolicyLRU, sim.PolicySRRIP, sim.PolicyDRRIP, sim.PolicyLFU, sim.PolicyRandom}
			if _, err = e.PolicyStudy(ctx, subset, policies); err == nil {
				log.Printf("policies: done")
			}
		default:
			return fmt.Errorf("unknown suite %q", name)
		}
		var merr *zcache.MatrixError
		if err != nil && errors.As(err, &merr) {
			// Quarantine mode: the suite completed with holes. Report
			// them and keep going — remaining suites may still be whole.
			clearProgressLine()
			logMissing(strings.TrimSpace(name), merr)
			missingTotal += len(merr.Missing)
			err = nil
		}
		if err != nil {
			clearProgressLine()
			if ctx.Err() != nil {
				log.Printf("interrupted; completed cells are checkpointed — rerun the same command to resume")
			}
			return err
		}
	}
	clearProgressLine()
	after, err := st.Stats()
	if err != nil {
		return err
	}
	p := e.Lab.Last()
	log.Printf("suite complete in %s: %d cells (last matrix: %d cached, %d computed); store now %d cells / %d shards / %.1f MB",
		time.Since(start).Round(time.Millisecond), after.Cells, p.Cached, p.Computed,
		after.Cells, after.Shards, float64(after.Bytes)/1e6)
	if missingTotal > 0 {
		return &exitErr{code: 4, msg: fmt.Sprintf("%d cell(s) quarantined; results are partial (rerun to retry, `runlab status` for history)", missingTotal)}
	}
	if after.Corrupt > 0 {
		return &exitErr{code: 3, msg: fmt.Sprintf("%d corrupt store line(s) detected; `runlab repair` rewrites the damaged shards", after.Corrupt)}
	}
	return nil
}

// logMissing reports every quarantined/missing matrix cell of one suite.
func logMissing(suite string, merr *zcache.MatrixError) {
	log.Printf("%s: %d cell(s) missing after quarantine:", suite, len(merr.Missing))
	for _, m := range merr.Missing {
		reason := m.Reason
		if reason == "" {
			reason = "not computed"
		}
		log.Printf("  %s %s %v/%v: %s", m.Workload, m.Design, m.Policy, m.Lookup, reason)
	}
}

// progressPrinter writes a throttled single-line progress meter to
// stderr: cells done/cached/failed, rate, and ETA.
func progressPrinter() func(runlab.Progress) {
	var lastPrint time.Time
	return func(p runlab.Progress) {
		if time.Since(lastPrint) < 200*time.Millisecond && p.Done+p.Failed < p.Total {
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
		fmt.Fprintf(os.Stderr, "\r\033[Kcells %d/%d (cached %d, computed %d, failed %d%s)  %.1f cells/s  ETA %s",
			p.Done, p.Total, p.Cached, p.Computed, p.Failed, quar, p.CellsPerSec, eta)
	}
}

func clearProgressLine() { fmt.Fprint(os.Stderr, "\r\033[K") }

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	store := fs.String("store", zcache.DefaultStoreDir, "result store directory")
	manifestTail := fs.Int("runs", 10, "manifest entries to show")
	strict := fs.Bool("strict", false, "treat corrupt store records as fatal while loading")
	fs.Parse(args)

	st, err := runlab.OpenWith(*store, runlab.Options{Strict: *strict})
	if err != nil {
		return err
	}
	s, err := st.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("store %s (schema v%d)\n\n", *store, runlab.SchemaVersion)
	t := stats.NewTable("cells", "sampled", "shards", "bytes", "corrupt lines")
	t.AddRow(s.Cells, s.Sampled, s.Shards, s.Bytes, s.Corrupt)
	fmt.Print(t.String())
	if len(s.Presets) > 0 {
		names := make([]string, 0, len(s.Presets))
		for n := range s.Presets {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("\nby preset:")
		pt := stats.NewTable("preset", "cells")
		for _, n := range names {
			pt.AddRow(n, s.Presets[n])
		}
		fmt.Print(pt.String())
	}
	stale := 0
	for v, n := range s.Schemas {
		if v != runlab.SchemaVersion {
			stale += n
		}
	}
	if stale > 0 || s.Corrupt > 0 {
		fmt.Printf("\n%d stale-schema and %d corrupt records; `runlab gc` reclaims stale, `runlab repair` rewrites corrupt shards\n", stale, s.Corrupt)
	}
	if shards := st.CorruptShards(); len(shards) > 0 {
		fmt.Printf("corrupt shards: %s\n", strings.Join(shards, ", "))
	}
	entries, err := st.Manifest()
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		if len(entries) > *manifestTail {
			entries = entries[len(entries)-*manifestTail:]
		}
		fmt.Printf("\nlast %d runs:\n", len(entries))
		mt := stats.NewTable("started", "label", "preset", "git", "total", "sampled", "cached", "computed", "failed", "quar", "corrupt", "wall")
		for _, e := range entries {
			mt.AddRow(e.StartedAt.Format("2006-01-02 15:04:05"), e.Label, e.Preset, e.GitRev,
				e.Total, e.Sampled, e.Cached, e.Computed, e.Failed, e.Quarantined, e.Corrupt,
				(time.Duration(e.WallSeconds * float64(time.Second))).Round(time.Millisecond).String())
		}
		fmt.Print(mt.String())
	}
	if s.Corrupt > 0 {
		return &exitErr{code: 3, msg: fmt.Sprintf("%d corrupt store line(s); `runlab repair` rewrites the damaged shards", s.Corrupt)}
	}
	return nil
}

func cmdGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	store := fs.String("store", zcache.DefaultStoreDir, "result store directory")
	preset := fs.String("drop-preset", "", "also drop all cells of this preset name")
	fs.Parse(args)

	st, err := runlab.Open(*store)
	if err != nil {
		return err
	}
	before, err := st.Stats()
	if err != nil {
		return err
	}
	kept, dropped, err := st.GC(func(k runlab.CellKey) bool {
		if k.Schema != runlab.SchemaVersion {
			return false
		}
		return *preset == "" || k.Preset.Name != *preset
	})
	if err != nil {
		return err
	}
	after, err := st.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("gc: kept %d, dropped %d stale, removed %d corrupt lines; %.1f MB -> %.1f MB\n",
		kept, dropped, before.Corrupt, float64(before.Bytes)/1e6, float64(after.Bytes)/1e6)
	return nil
}

// cmdRepair rewrites only the shards that held corrupt lines, keeping
// every record that survived, and reports what was reclaimed.
func cmdRepair(args []string) error {
	fs := flag.NewFlagSet("repair", flag.ExitOnError)
	store := fs.String("store", zcache.DefaultStoreDir, "result store directory")
	durable := fs.Bool("durable", true, "fsync the rewritten shards")
	fs.Parse(args)

	st, err := runlab.OpenWith(*store, runlab.Options{Durable: *durable})
	if err != nil {
		return err
	}
	if shards := st.CorruptShards(); len(shards) > 0 {
		fmt.Printf("corrupt shards: %s\n", strings.Join(shards, ", "))
	}
	rep, err := st.Repair()
	if err != nil {
		return err
	}
	fmt.Printf("repair: scanned %d shard(s), rewrote %d, kept %d record(s), dropped %d corrupt line(s)\n",
		rep.ShardsScanned, rep.ShardsRewritten, rep.RecordsKept, rep.LinesDropped)
	return nil
}
