// Command zkvbench load-tests a running zcached server — or a cluster of
// them — and doubles as the CLI face of the simulator-equivalence replay.
//
// Load generation (default mode):
//
//	zkvbench -addr 127.0.0.1:7171 -clients 8 -ops 1000000 -get-frac 0.9
//	zkvbench -nodes 127.0.0.1:7171,127.0.0.1:7172,127.0.0.1:7173 \
//	    -topology replicated -oracle -join 127.0.0.1:7174 -join-after 50000
//
// drives a reproducible mixed GET/SET stream from -clients cluster clients
// (internal/zcluster.Client, -pipeline operations per batch) and reports
// ops/s, hit rate, p50/p99/p999 per-op latency overall and per node, errors
// by class, and a per-node health line parsed from each server's STATS
// text. There is one load path and one client: -addr A is exactly
// -nodes A -topology ring, a ring of one node. -topology ring keeps one copy
// per key; replicated writes both copies in one flush (R=2), fails reads
// over, read-repairs lost copies and cross-checks 1 hit in 64. SET payloads
// are -val-bytes long and travel under an 8-byte version stamp.
//
// With -writers N, N additional clients issue only SETs, unmeasured, for
// the whole window (contention mode): combined with -get-frac 1 the
// percentiles then measure pure readers while eviction walks and relocation
// chains are in flight. -stall N parks N silent connections on the nodes
// for the whole run (the slow-loris scenario the server's deadlines must
// absorb). With -join, the named node is added to the ring live once
// -join-after measured ops have completed — the full copy/flip/delta/forget
// reshard runs under load. The run fails if any operation is dropped.
//
// Chaos mode:
//
//	zkvbench -chaos 'latency:d=1ms,jitter=3ms,p=0.05;reset:p=0.002' \
//	    -chaos-seed 7 -oracle -op-timeout 2s -stall 2
//
// puts an in-process netchaos proxy injecting the given fault spec (see
// internal/netchaos) in front of every node, each with its own derived
// seed. The client stack must absorb the faults: the cluster client
// classifies every transport error (timeout, reset, busy, protocol) and
// returns the operations it clipped, the harness re-issues them, and -oracle
// verifies every GET hit against its key-derived expected value.
//
// Equivalence replay:
//
//	zkvbench -equiv canneal -ways 4 -rows 1024 -levels 2
//
// routes a workload preset through an -equiv-nodes-node consistent-hash
// ring (default one node) onto one-shard zkv stores and through the
// simulator's cache construction, asserting bit-identical eviction victim
// sequences and hit/miss counts node by node. A divergence exits 2.
//
// Exit codes: 0 success, 1 usage/config error, 2 benchmark failure:
// equivalence divergence, any wrong (oracle-mismatched) GET, any
// unclassified error, a dropped operation, or — outside chaos mode, where
// faults are expected — any error at all.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"zcache/internal/netchaos"
	"zcache/internal/repl"
	"zcache/internal/zcluster"
	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("zkvbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "127.0.0.1:7171", "zcached address: shorthand for a one-node -nodes")
		clients  = fs.Int("clients", 4, "concurrent client connections")
		ops      = fs.Int("ops", 200000, "total operations across clients")
		keySpace = fs.Int("keys", 65536, "distinct key count")
		valBytes = fs.Int("val-bytes", 64, "SET payload size")
		getFrac  = fs.Float64("get-frac", 0.9, "fraction of GETs (rest are SETs)")
		pipeline = fs.Int("pipeline", 16, "requests per flush (1 = no pipelining)")
		seed     = fs.Uint64("seed", 1, "workload seed")
		writers  = fs.Int("writers", 0, "background all-SET clients kept saturated for the whole run (contention mode)")

		nodes     = fs.String("nodes", "", "comma-separated node addresses; overrides -addr")
		topology  = fs.String("topology", "ring", "cluster topology: ring (one copy per key) or replicated (R=2)")
		vnodes    = fs.Int("vnodes", 0, "virtual nodes per server on the hash ring (0 = default)")
		join      = fs.String("join", "", "node address added to the ring live, mid-run")
		joinAfter = fs.Int("join-after", 0, "measured ops completed cluster-wide before the live join starts")
		joinPage  = fs.Int("join-page", 0, "migration page budget in bytes for the live join (0 = the server's 256KiB cap)")

		chaos     = fs.String("chaos", "", "netchaos fault spec; route all connections through in-process fault proxies (e.g. 'latency:d=1ms,p=0.1;reset:p=0.01')")
		chaosSeed = fs.Uint64("chaos-seed", 1, "fault schedule seed (chaos mode)")
		oracle    = fs.Bool("oracle", false, "self-certifying values: verify every GET hit against its key-derived expected bytes")
		opTimeout = fs.Duration("op-timeout", 0, "deadline of each batch round (default 2s in chaos mode, none otherwise)")
		stall     = fs.Int("stall", 0, "silent connections held open for the whole run (slow-loris pressure)")

		equiv      = fs.String("equiv", "", "equivalence mode: workload preset to replay (e.g. canneal)")
		equivNodes = fs.Int("equiv-nodes", 0, "replay through an N-node hash ring (equiv mode; 0 = one node)")
		ways       = fs.Int("ways", 4, "zcache ways (equiv mode)")
		rows       = fs.Uint64("rows", 1024, "rows per way (equiv mode)")
		levels     = fs.Int("levels", 2, "walk depth (equiv mode)")
		policy     = fs.String("policy", "lru", "replacement policy: lru, lru-full, random, lfu, srrip or drrip (equiv mode)")
		accesses   = fs.Int("accesses", 200000, "trace accesses to replay (equiv mode)")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "zkvbench: "+format+"\n", a...)
		return code
	}

	if *equiv != "" {
		pol, err := repl.ParseKind(*policy)
		if err != nil {
			return fail(1, "%v", err)
		}
		cfg := zkv.Config{Ways: *ways, Rows: *rows, Levels: *levels, Policy: pol, Seed: *seed}
		rep, err := zcluster.ReplayEquivByName(*equiv, cfg, max(*equivNodes, 1), *vnodes, *accesses)
		if err != nil {
			return fail(1, "%v", err)
		}
		fmt.Fprintf(stdout, "workload %s across %d nodes: %d accesses\n", rep.Workload, rep.Nodes, rep.Accesses)
		for _, n := range rep.PerNode {
			verdict := "match"
			if !n.Match {
				verdict = "DIVERGED: " + n.Detail
			}
			fmt.Fprintf(stdout, "node %s: %d accesses, %d hits, %d misses, %d victims — %s\n",
				n.Node, n.Accesses, n.Hits, n.Misses, n.Victims, verdict)
		}
		if !rep.Match {
			fmt.Fprintf(stdout, "DIVERGED: %s\n", rep.Detail)
			return 2
		}
		fmt.Fprintln(stdout, "MATCH: every node's zkv store and simulator reference agree bit-for-bit")
		return 0
	}

	var ring []string
	for _, n := range strings.Split(*nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			ring = append(ring, n)
		}
	}
	if len(ring) == 0 {
		ring = []string{*addr}
	}
	replication := 0
	switch *topology {
	case "ring":
		replication = 1
	case "replicated":
		replication = 2
	default:
		return fail(1, "-topology %q: want ring or replicated", *topology)
	}

	// Chaos mode: each node gets its own proxy and a decorrelated fault
	// schedule, wired in through DialAddr so ring membership keeps the real
	// names. Faults are then expected; correctness is judged on
	// classification (no unclassified errors) and the oracle (no wrong
	// GETs), not on the error count.
	dial := make(map[string]string)
	var proxies []*netchaos.Proxy
	if *chaos != "" {
		for i, node := range ring {
			spec, err := netchaos.ParseSpec(*chaos, *chaosSeed+uint64(i))
			if err != nil {
				return fail(1, "-chaos: %v", err)
			}
			proxy := netchaos.New(node, spec)
			if err := proxy.Start(""); err != nil {
				return fail(1, "chaos proxy for %s: %v", node, err)
			}
			defer proxy.Close()
			proxies = append(proxies, proxy)
			dial[node] = proxy.Addr()
			fmt.Fprintf(stdout, "chaos: %s through %s with spec %q (seed %d)\n",
				node, proxy.Addr(), spec.String(), *chaosSeed+uint64(i))
		}
		if *opTimeout == 0 {
			// Blackhole faults turn into hangs without a deadline; chaos
			// runs get one by default.
			*opTimeout = 2 * time.Second
		}
	}

	// The cluster client owns every resend: the harness re-issues the ops it
	// returns, it resends the join's idempotent verbs itself (a shed MIGRATE
	// does not abort the join), and the health sweep tries each node once.
	ccfg := zcluster.Config{
		Nodes: ring, VNodes: *vnodes, Replication: replication,
		DialAddr: dial, Options: zkvproto.Options{OpTimeout: *opTimeout},
	}
	if replication == 2 {
		ccfg.RepairEvery = 64
	}
	ringVNodes := *vnodes
	if ringVNodes == 0 {
		ringVNodes = zcluster.DefaultVNodes
	}
	fmt.Fprintf(stdout, "cluster: %d nodes, topology %s, %d vnodes/node\n", len(ring), *topology, ringVNodes)

	rep, err := zcluster.RunLoad(zcluster.LoadConfig{
		Cluster: ccfg, Clients: *clients, Ops: *ops, KeySpace: *keySpace,
		ValBytes: *valBytes, GetFrac: *getFrac, Pipeline: *pipeline, Seed: *seed,
		Writers: *writers, Oracle: *oracle, Stall: *stall,
		JoinNode: *join, JoinAfterOps: *joinAfter, JoinPageBytes: *joinPage,
	})
	if err != nil {
		return fail(2, "%v", err)
	}

	hitRate := 0.0
	if rep.Gets > 0 {
		hitRate = float64(rep.Hits) / float64(rep.Gets)
	}
	// The one line that says "hit rate": CI's restart drill greps it.
	fmt.Fprintf(stdout, "%d ops in %s: %.0f ops/s (%d gets, %d sets, hit rate %.3f, %d errors)\n",
		rep.Ops, rep.Wall.Round(1000000), rep.OpsPerSec, rep.Gets, rep.Sets, hitRate, rep.Errors)
	fmt.Fprintf(stdout, "latency: p50 %s  p99 %s  p999 %s  max %s\n",
		rep.P50, rep.P99, rep.P999, rep.PMax)
	for _, node := range sortedNodes(rep.PerNode) {
		nl := rep.PerNode[node]
		fmt.Fprintf(stdout, "node %s: %d ops  p50 %s  p99 %s  p999 %s  max %s\n",
			node, nl.Ops, nl.P50, nl.P99, nl.P999, nl.PMax)
	}
	classified := rep.Timeouts + rep.Resets + rep.Busys + rep.ProtoErrors
	if classified+rep.Unclassified+rep.Retried+rep.Reconnects > 0 {
		fmt.Fprintf(stdout, "faults: %d timeouts, %d resets, %d busy, %d protocol, %d unclassified; %d ambiguous mutations, %d ops retried, %d reconnects\n",
			rep.Timeouts, rep.Resets, rep.Busys, rep.ProtoErrors, rep.Unclassified,
			rep.Ambiguous, rep.Retried, rep.Reconnects)
	}
	if replication == 2 {
		fmt.Fprintf(stdout, "replication: %d replica sets, %d failovers, %d repairs, %d replica errors\n",
			rep.ReplicaSets, rep.Failovers, rep.Repairs, rep.ReplicaErrors)
	}
	if *oracle {
		fmt.Fprintf(stdout, "oracle: %d GET hits verified, %d wrong\n", rep.VerifiedGets, rep.WrongGets)
	}
	if *writers > 0 {
		fmt.Fprintf(stdout, "contention: %d writers sustained %d sets (%.0f sets/s, %d errors) during the window\n",
			*writers, rep.WriterSets, float64(rep.WriterSets)/rep.Wall.Seconds(), rep.WriterErrors)
	}
	if r := rep.Reshard; r != nil {
		fmt.Fprintf(stdout, "reshard: %s joined — %d arcs, %d entries copied in %d pages (%d bytes), delta %d/%d applied, %d arcs forgotten (%d entries), %d kept as replica\n",
			r.Node, r.Arcs, r.CopiedEntries, r.CopyPages, r.CopiedBytes,
			r.DeltaApplied, r.DeltaChecked, r.ForgottenArcs, r.Dropped, r.KeptAsReplica)
		ccfg.Nodes = append(ccfg.Nodes, *join) // the health sweep below covers the joiner
	}
	for i, proxy := range proxies {
		fmt.Fprintf(stdout, "chaos proxy %s: %s\n", ring[i], proxy.Stats().Describe())
	}
	printHealth(stdout, stderr, ccfg)

	switch {
	case rep.WrongGets > 0:
		return fail(2, "FAIL: %d wrong GETs (value oracle mismatch)", rep.WrongGets)
	case rep.Unclassified > 0:
		return fail(2, "FAIL: %d unclassified transport errors", rep.Unclassified)
	case *chaos == "" && (rep.Errors > 0 || rep.WriterErrors > 0):
		return 2
	}
	return 0
}

func sortedNodes[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printHealth dials each node once more and renders one line per node from
// its STATS counters — the post-run cluster health view.
func printHealth(stdout, stderr io.Writer, ccfg zcluster.Config) {
	cl, err := zcluster.New(ccfg)
	if err != nil {
		fmt.Fprintf(stderr, "zkvbench: health: %v\n", err)
		return
	}
	defer cl.Close()
	health := cl.Health()
	for _, node := range sortedNodes(health) {
		h := health[node]
		if h.Err != nil {
			fmt.Fprintf(stdout, "health %s: UNREACHABLE (%v)\n", node, h.Err)
			continue
		}
		m := h.Stats.All
		fmt.Fprintf(stdout, "health %s: %d/%d resident, server hit ratio %.3f, %d evictions, %d migrated out (%d pages), %d dropped by forget, %d shed\n",
			node, m["zkv_resident_entries"], m["zkv_capacity_entries"], h.Stats.HitRate(), m["zkv_evictions_total"],
			m["zkv_migrate_entries_total"], m["zkv_migrate_pages_total"], m["zkv_forget_dropped_total"],
			m["zkv_shed_conns_total"]+m["zkv_shed_requests_total"])
	}
}
