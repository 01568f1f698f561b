// Command runlab reproduces the paper's evaluation: every figure and table
// comes from one of its verbs.
//
//	runlab run [-suite all] [-policy lru] [-preset quick] ...   # Figs. 4–5, §VI-D, headline, policies
//	runlab assoc -fig 2|validate|conflict|hash|3 [-panel a..d]  # Figs. 2–3, §IV
//	runlab sim -workload canneal -design z-L3 ...               # one Table I cell, every metric
//	runlab cost [table2|merit|ratios|sweep]                     # Table II, §III-B
//	runlab validate-sampled                                     # sampled vs exact execution
//	runlab status | gc                                          # the result store
//
// `run` pushes every matrix cell through the content-addressed result store
// and then prints the suite's figure. It checkpoints completed cells as it
// goes; Ctrl-C (or a crash) loses at most one flush interval of work, and
// re-invoking the same command resumes from the cells already on disk. A
// fully warm rerun performs zero simulations. `-store ""` attaches no store.
// Every checkpoint is fsynced; a store that a crash left with torn lines
// still serves its intact cells, exits 3, and `gc` compacts it clean.
//
// Tables go to stdout; logs and the progress meter go to stderr.
//
// Exit codes: 0 success, 1 error, 2 usage, 3 store corruption detected,
// 4 cells quarantined (partial results).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"zcache"
	"zcache/internal/prof"
	"zcache/internal/repl"
	"zcache/internal/runlab"
	"zcache/internal/stats"
)

// exitErr carries a specific process exit code alongside the message. An
// empty message has already been reported (by the flag package).
type exitErr struct {
	code int
	msg  string
}

func (e *exitErr) Error() string { return e.msg }

func usagef(format string, a ...any) error {
	return &exitErr{code: 2, msg: fmt.Sprintf(format, a...)}
}

// cli is one invocation's output streams.
type cli struct {
	stdout, stderr io.Writer
	log            *log.Logger
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	c := &cli{stdout: stdout, stderr: stderr, log: log.New(stderr, "runlab: ", 0)}
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	verbs := map[string]func([]string) error{
		"run":              c.runSuites,
		"assoc":            c.assoc,
		"sim":              c.sim,
		"cost":             c.cost,
		"validate-sampled": c.validateSampled,
		"status":           c.status,
		"gc":               c.gc,
	}
	verb, ok := verbs[args[0]]
	switch {
	case args[0] == "-h" || args[0] == "--help" || args[0] == "help":
		fmt.Fprint(stdout, usage)
		return 0
	case !ok:
		fmt.Fprintf(stderr, "runlab: unknown verb %q\n%s", args[0], usage)
		return 2
	}
	err := verb(args[1:])
	if err == nil {
		return 0
	}
	code := 1
	var xe *exitErr
	if errors.As(err, &xe) {
		code = xe.code
	}
	// Errors from the store package already carry the "runlab: " prefix.
	if msg := err.Error(); msg != "" {
		c.log.Print(strings.TrimPrefix(msg, "runlab: "))
	}
	return code
}

const usage = `usage: runlab <verb> [flags]

verbs:
  run -suite LIST   run figure suites through the result store and print them:
                    fig4, fig5, bw, headline, policies, or all (default all)
  assoc -fig F      associativity figures: 2, validate, conflict, hash, or 3 [-panel a..d]
  sim               one workload on one L2 design, every metric (-list: the suite)
  cost [TABLE]      cost model tables: table2 (default), merit, ratios, or sweep
  validate-sampled  check sampled execution's work and error against the exact suite
  status            show store contents and run history
  gc                compact the store, dropping stale-schema and corrupt records

'runlab <verb> -h' lists a verb's flags. Shared flags mean the same in every
verb that takes them: -preset test|quick|full, -policy lru|lru-full|opt|random|
lfu|srrip|drrip (lru is the paper's bucketed LRU), -workloads LIST, -store DIR
("" = no store), -check, -quarantine, -sampled, -intervals, -clusters,
-cpuprofile, -memprofile, -trace.

exit codes:
  0  success
  1  runtime error
  2  usage error
  3  store corruption detected (run 'runlab gc')
  4  cells quarantined; results are partial (rerun to backfill)
`

// shared holds the flags more than one verb reads. Each verb registers only
// the ones it uses, by name; a field's value at registration is the default.
type shared struct {
	preset, policy, workloads, store string
	check, quarantine, sampled       bool
	intervals, clusters              int
	prof                             prof.Flags
}

func newShared() *shared {
	return &shared{preset: "quick", policy: "lru", store: zcache.DefaultStoreDir}
}

func (s *shared) register(fs *flag.FlagSet, names ...string) {
	for _, n := range names {
		switch n {
		case "preset":
			fs.StringVar(&s.preset, n, s.preset, "machine preset: test | quick | full")
		case "policy":
			fs.StringVar(&s.policy, n, s.policy, "replacement policy: lru (the paper's bucketed LRU) | lru-full | opt | random | lfu | srrip | drrip")
		case "workloads":
			fs.StringVar(&s.workloads, n, s.workloads, "comma-separated workload subset")
		case "store":
			fs.StringVar(&s.store, n, s.store, `result store directory ("" = no store)`)
		case "check":
			fs.BoolVar(&s.check, n, false, "enable simulator invariant checks (MESI, inclusion, walk legality)")
		case "quarantine":
			fs.BoolVar(&s.quarantine, n, false, "keep running past failing cells; exit 4 with partial results")
		case "sampled":
			fs.BoolVar(&s.sampled, n, false, "run cells through sampled execution (not valid with -policy opt)")
		case "intervals":
			fs.IntVar(&s.intervals, n, 0, "sampled: interval count (0 = default 32)")
		case "clusters":
			fs.IntVar(&s.clusters, n, 0, "sampled: cluster/leg count (0 = default 12)")
		case "prof":
			s.prof.Register(fs)
		default:
			panic("runlab: no shared flag " + n)
		}
	}
}

func (s *shared) presetValue() (zcache.Preset, error) {
	switch s.preset {
	case "test":
		return zcache.TestPreset(), nil
	case "quick":
		return zcache.QuickPreset(), nil
	case "full":
		return zcache.FullPreset(), nil
	}
	return zcache.Preset{}, usagef("unknown preset %q", s.preset)
}

func (s *shared) policyValue() (repl.Kind, error) {
	pol, err := repl.ParseKind(s.policy)
	if err != nil {
		return 0, usagef("%v", err)
	}
	return pol, nil
}

// subset splits -workloads and checks every name against the suite; nil
// means the verb's default set.
func (s *shared) subset() ([]string, error) {
	if s.workloads == "" {
		return nil, nil
	}
	names := strings.Split(s.workloads, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
	}
	if _, err := zcache.SuiteWorkloads(names); err != nil {
		return nil, usagef("%v", err)
	}
	return names, nil
}

func (c *cli) flagSet(verb string) *flag.FlagSet {
	fs := flag.NewFlagSet("runlab "+verb, flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	return fs
}

// parseArgs parses a verb's flags and returns its positional arguments.
func parseArgs(fs *flag.FlagSet, args []string) ([]string, error) {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, &exitErr{code: 0}
		}
		return nil, &exitErr{code: 2}
	}
	return fs.Args(), nil
}

// parse is parseArgs for the verbs that take no positional arguments.
func parse(fs *flag.FlagSet, args []string) error {
	rest, err := parseArgs(fs, args)
	if err == nil && len(rest) > 0 {
		err = usagef("unexpected argument %q", rest[0])
	}
	return err
}

// storeDir returns -store for the verbs that cannot run without one.
func (s *shared) storeDir() (string, error) {
	if s.store == "" {
		return "", usagef("this verb needs a store (-store DIR)")
	}
	return s.store, nil
}

func (c *cli) status(args []string) error {
	sh := newShared()
	fs := c.flagSet("status")
	sh.register(fs, "store")
	manifestTail := fs.Int("runs", 10, "manifest entries to show")
	if err := parse(fs, args); err != nil {
		return err
	}
	if *manifestTail < 0 {
		return usagef("-runs must be >= 0, got %d", *manifestTail)
	}
	dir, err := sh.storeDir()
	if err != nil {
		return err
	}
	st, err := runlab.Open(dir)
	if err != nil {
		return err
	}
	sum, err := st.Stats()
	if err != nil {
		return err
	}
	w := c.stdout
	fmt.Fprintf(w, "store %s (schema v%d)\n\n", dir, runlab.SchemaVersion)
	t := stats.NewTable("cells", "sampled", "shards", "bytes", "corrupt lines")
	t.AddRow(sum.Cells, sum.Sampled, sum.Shards, sum.Bytes, sum.Corrupt)
	fmt.Fprint(w, t.String())
	if len(sum.Presets) > 0 {
		names := make([]string, 0, len(sum.Presets))
		for n := range sum.Presets {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintln(w, "\nby preset:")
		pt := stats.NewTable("preset", "cells")
		for _, n := range names {
			pt.AddRow(n, sum.Presets[n])
		}
		fmt.Fprint(w, pt.String())
	}
	if sum.Stale > 0 || sum.Corrupt > 0 {
		fmt.Fprintf(w, "\n%d stale-schema and %d corrupt records; `runlab gc` reclaims both\n", sum.Stale, sum.Corrupt)
	}
	entries, err := st.Manifest()
	if err != nil {
		return err
	}
	if len(entries) > 0 {
		if len(entries) > *manifestTail {
			entries = entries[len(entries)-*manifestTail:]
		}
		fmt.Fprintf(w, "\nlast %d runs:\n", len(entries))
		mt := stats.NewTable("started", "label", "preset", "git", "total", "sampled", "cached", "computed", "failed", "quar", "corrupt", "wall")
		for _, e := range entries {
			mt.AddRow(e.StartedAt.Format("2006-01-02 15:04:05"), e.Label, e.Preset, e.GitRev,
				e.Total, e.Sampled, e.Cached, e.Computed, e.Failed, e.Quarantined, e.Corrupt,
				(time.Duration(e.WallSeconds * float64(time.Second))).Round(time.Millisecond).String())
		}
		fmt.Fprint(w, mt.String())
	}
	if sum.Corrupt > 0 {
		return &exitErr{code: 3, msg: fmt.Sprintf("%d corrupt store line(s); `runlab gc` compacts them away", sum.Corrupt)}
	}
	return nil
}

func (c *cli) gc(args []string) error {
	sh := newShared()
	fs := c.flagSet("gc")
	sh.register(fs, "store")
	preset := fs.String("drop-preset", "", "also drop all cells of this preset name")
	if err := parse(fs, args); err != nil {
		return err
	}
	dir, err := sh.storeDir()
	if err != nil {
		return err
	}
	st, err := runlab.Open(dir)
	if err != nil {
		return err
	}
	before, err := st.Stats()
	if err != nil {
		return err
	}
	kept, dropped, err := st.GC(func(k runlab.CellKey) bool {
		return *preset == "" || k.Preset != *preset
	})
	if err != nil {
		return err
	}
	after, err := st.Stats()
	if err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "gc: kept %d, dropped %d, removed %d stale-schema and %d corrupt lines; %.1f MB -> %.1f MB\n",
		kept, dropped, before.Stale, before.Corrupt, float64(before.Bytes)/1e6, float64(after.Bytes)/1e6)
	return nil
}
