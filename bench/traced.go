package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"zcache"
	"zcache/internal/zcluster"
	"zcache/internal/zkv"
)

// A traced run reports every per-layer metric whatever the workload, so that
// BENCHMARK.json has one list. A layer the workload does not pass through is
// measured on a reference instead, and README.md says which layer matters
// where:
//   - the key-value layers replay the workload's own stream, or embed-aside's
//     for a simulation workload;
//   - the simulator layers replay the workload's own traces, or refSim's for
//     a key-value workload;
//   - the pipelined-TCP spans come from the workload's own spanned phase, or
//     a short one of serve-hot; the cluster spans likewise from serve-cluster.

// overheadFlag is the share of throughput the spans may cost before the
// span-derived numbers are flagged as untrustworthy.
const overheadFlag = 0.10

// div is a/b, and 0 when there was nothing to divide by (a phase too short
// to hold the event): a result line cannot carry NaN.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// kvTrace is one spanned phase of a key-value workload with what the
// servers, stores and cluster clients counted during it.
type kvTrace struct {
	spec    kvSpec
	ph      phase
	recs    []*spanRec
	agg     map[string]spanAgg
	stats   zkv.Stats
	shed    uint64 // requests answered StatusBusy
	cluster zcluster.Stats
}

func (e *kvEnv) shedRequests() (n uint64) {
	for _, srv := range e.servers {
		n += srv.ShedStats().ShedRequests
	}
	return n
}

func (e *kvEnv) clusterStats() (sum zcluster.Stats) {
	for _, c := range e.cluster {
		s := c.Stats()
		sum.Failovers += s.Failovers
		sum.Repairs += s.Repairs
		sum.ReplicaErrors += s.ReplicaErrors
	}
	return sum
}

func (e *kvEnv) trace(ctx context.Context, dur time.Duration) (kvTrace, error) {
	shed0, cl0 := e.shedRequests(), e.clusterStats()
	ph, recs, err := e.run(ctx, dur, true)
	if err != nil {
		return kvTrace{}, err
	}
	cl := e.clusterStats()
	return kvTrace{
		spec: e.spec, ph: ph, recs: recs, agg: mergeAggs(recs), stats: e.lastStats,
		shed:    e.shedRequests() - shed0,
		cluster: zcluster.Stats{Failovers: cl.Failovers - cl0.Failovers, Repairs: cl.Repairs - cl0.Repairs, ReplicaErrors: cl.ReplicaErrors - cl0.ReplicaErrors},
	}, nil
}

// referenceTrace sets up another workload, runs one short spanned phase of
// it and tears it down. Its failures count: a reference that answers wrongly
// is as much a wrong output as the workload's own.
func referenceTrace(ctx context.Context, name string, seed uint64, tmp string, dur time.Duration) (kvTrace, error) {
	e, err := setupKV(kvSpecByName(name), seed, tmp)
	if err != nil {
		return kvTrace{}, fmt.Errorf("reference %s: %w", name, err)
	}
	tr, err := e.trace(ctx, dur)
	return tr, errors.Join(err, e.close())
}

func spanUs(a spanAgg, per float64) float64 { return div(float64(a.total)/1e3, per) }

// tcpMetrics reads the pipelined path's figures off a serve-hot or
// serve-churn trace: what the server layer looks like from the client.
func tcpMetrics(t kvTrace, m metricSet) {
	bursts := float64(t.agg["loadgen.burst"].count)
	flush, read, first := t.agg["zkvproto.client.flush"], t.agg["zkvproto.client.read"], t.agg["zkvproto.client.read.first"]
	m.set("server.burst_rtt_us", div(float64(flush.total+read.total)/1e3, bursts))
	m.set("server.first_reply_us", div(float64(flush.total+first.total)/1e3, bursts))
	m.set("server.shed_frac", div(float64(t.shed), float64(t.ph.done)))
	m.set("loadgen.queue_ns_per_op", div(float64(t.agg["zkvproto.client.queue"].total), bursts*float64(t.spec.pipeline)))
	m.set("loadgen.flush_us_per_burst", spanUs(flush, bursts))
	m.set("loadgen.read_wait_us_per_burst", spanUs(first, bursts))
}

// clusterMetrics reads the routed path's figures off a serve-cluster trace.
func clusterMetrics(t kvTrace, m metricSet) {
	get, set := t.agg["zcluster.get"], t.agg["zcluster.set"]
	m.set("zcluster.get_us", spanUs(get, float64(get.count)))
	m.set("zcluster.set_us", spanUs(set, float64(set.count)))
	// Store-side SETs beyond the callers' own: replica copies and repairs.
	m.set("zcluster.replica_sets_per_set", div(float64(t.stats.Sets)-float64(t.ph.sets), float64(t.ph.sets)))
	m.set("zcluster.repairs_per_kop", div(1000*float64(t.cluster.Repairs), float64(t.ph.done)))
	m.set("zcluster.failovers", float64(t.cluster.Failovers))
}

// refSim is the simulation the simulator layers replay in a key-value
// workload's traced run: two miss-intensive traces at the unit-test preset.
func refSim(seed uint64) *simEnv {
	e := &simEnv{spec: simSpec{name: "ref-sim", sampled: true}, names: []string{"canneal", "cactusADM"}, preset: zcache.TestPreset()}
	e.preset.Seed = seed
	return e
}

// term is one line of the cost ledger: a layer's nanoseconds per operation
// of the workload, its isolated cost times how often an operation needs it.
type term struct {
	name string
	ns   float64
}

// kvLedger prices one operation of a key-value workload from the layers'
// isolated costs and the multiplicities the stores counted in ph.
func kvLedger(spec kvSpec, ph phase, st zkv.Stats, m metricSet) []term {
	ops := float64(ph.done)
	per := func(c uint64) float64 { return div(float64(c), ops) }
	insert := m["zkv.set_insert_ns"]
	if spec.persist {
		insert = m["zkv.set_insert_persist_ns"]
	}
	terms := []term{
		{"loadgen.gen", m["loadgen.gen_ns_per_op"]},
		{"loadgen.check", m["loadgen.check_ns_per_hit"] * div(float64(ph.hits), float64(ph.gets)) * div(float64(ph.gets), float64(ph.ops))},
		{"zkv.get_hit", per(st.GetHits) * m["zkv.get_hit_ns"]},
		{"zkv.get_miss", per(st.GetMisses) * m["zkv.get_miss_ns"]},
		{"zkv.set_overwrite", per(st.Overwrites) * m["zkv.set_overwrite_ns"]},
		{"zkv.set_insert", per(st.Inserts) * insert},
	}
	if spec.via != viaEmbed {
		// One request frame and one reply frame per store operation,
		// replica copies included; each is encoded once and decoded once.
		frames := per(st.Gets + st.Sets)
		terms = append(terms,
			term{"zkvproto.client", frames * (m["zkvproto.req_encode_ns"] + m["zkvproto.resp_decode_ns"])},
			term{"zkvproto.server", frames * (m["zkvproto.req_decode_ns"] + m["zkvproto.resp_encode_ns"])})
	}
	if spec.via == viaCluster {
		terms = append(terms, term{"zcluster.route", div(float64(ph.gets+ph.sets), float64(ph.ops)) * m["zcluster.route_ns"]})
	}
	return terms
}

// simLedger prices one simulated instruction of a Fig. 4 pass.
func simLedger(e *simEnv, m metricSet) []term {
	if !e.spec.sampled {
		return []term{{"sim.system", m["sim.system_ns_per_instr"]}}
	}
	// One capture and one plan serve every design of a workload's row.
	designs := float64(len(e.designs()))
	refs := m["sim.l2_refs_per_kinstr"] / 1000
	return []term{
		{"sim.capture", m["sim.capture_ns_per_instr"] / designs},
		{"sample.plan", m["sample.plan_ns_per_ref"] * refs / designs},
		{"sample.run", m["sample.run_ns_per_ref"] * refs},
	}
}

// closeLedger sets the residual so that the ledger closes by construction:
// process CPU per operation = Σ terms + residual. On the serving workloads
// the residual is the server layer's own cost (system calls, netpoll,
// goroutine hand-offs); elsewhere it is what the isolated costs fail to
// explain (contention, cache misses, the Experiment's own bookkeeping).
func closeLedger(name string, ph phase, terms []term, m metricSet) {
	cpu := div(float64(ph.cpuUser+ph.cpuSys), float64(ph.done))
	sum := 0.0
	parts := make([]string, 0, len(terms)+1)
	for _, t := range terms {
		sum += t.ns
		parts = append(parts, fmt.Sprintf("%s %.4g", t.name, t.ns))
	}
	m.set("server.residual_ns_per_op", cpu-sum)
	parts = append(parts, fmt.Sprintf("server.residual %.4g", cpu-sum))
	fmt.Printf("# ledger %s: proc CPU/op %.4g ns = %s\n", name, cpu, strings.Join(parts, " + "))
}

func procMetrics(ph phase, m metricSet) {
	ops := float64(ph.done)
	m.set("proc.user_ns_per_op", div(float64(ph.cpuUser), ops))
	m.set("proc.sys_ns_per_op", div(float64(ph.cpuSys), ops))
	m.set("proc.ctxsw_per_kop", div(1000*float64(ph.ctxSwitches), ops))
	m.set("proc.gc_pause_ms", float64(ph.gcPause)/1e6)
}

func printSpans(agg map[string]spanAgg) {
	names := make([]string, 0, len(agg))
	for name := range agg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		a := agg[name]
		fmt.Printf("# span %-28s n=%-8d total %-14v self %v\n", name, a.count, a.total, a.self)
	}
}

// runTraced is the per-layer run: an untraced and a spanned phase of the
// workload (their ratio is the spans' overhead), then the layer replay.
func runTraced(ctx context.Context, w workload, o options, tmp string, m metricSet) (attempted, failed int64, err error) {
	e, err := w.setup(ctx, o, tmp)
	if err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, e.close()) }()
	smoke := o.seconds < 1
	dur := time.Duration(0.3 * o.seconds * float64(time.Second))
	count := func(ph phase) { attempted, failed = attempted+ph.attempted, failed+ph.failed }

	plain, _, err := e.run(ctx, dur, false)
	if err != nil {
		return 0, 0, err
	}
	count(plain)
	procMetrics(plain, m)
	m.set("loadgen.op_p50_us", median(plain.p50)/1e3)
	m.set("loadgen.op_p99_us", median(plain.p99)/1e3)
	m.set("loadgen.op_p999_us", median(plain.p999)/1e3)
	fmt.Printf("# latency: percentiles are medians over %d slices of about %d samples each; op_p99 is percentile %g\n", plain.completeSlice, plain.latPerSlice, 100*plain.tailUsed)

	// The spanned phase, and the references for the transports this
	// workload does not use.
	var own, tcp, cluster kvTrace
	var recs []*spanRec
	var spanned phase
	kv, _ := e.(*kvEnv)
	var plainStats zkv.Stats
	if kv != nil {
		plainStats = kv.lastStats
		if own, err = kv.trace(ctx, dur); err != nil {
			return 0, 0, err
		}
		spanned, recs = own.ph, own.recs
	} else if spanned, recs, err = e.run(ctx, dur, true); err != nil {
		return 0, 0, err
	}
	count(spanned)
	va, vf, err := e.verify()
	if err != nil {
		return 0, 0, err
	}
	attempted, failed = attempted+va, failed+vf
	printSpans(mergeAggs(recs))
	if o.spansDir != "" {
		if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
			return 0, 0, err
		}
		if err := writeSpans(filepath.Join(o.spansDir, fmt.Sprintf("%s.seed%d.spans.jsonl", w.name, o.seed)), recs); err != nil {
			return 0, 0, err
		}
	}
	overhead := 1 - div(spanned.opsPerSecond(), plain.opsPerSecond())
	m.set("spans.overhead_frac", overhead)
	if overhead > overheadFlag {
		fmt.Printf("# FLAG spans.overhead_frac %.3f is above %.2f: the span-derived figures of this run are not to be trusted\n", overhead, overheadFlag)
	}

	tcp, cluster = own, own
	if kv == nil || kv.spec.via != viaTCP {
		if tcp, err = referenceTrace(ctx, "serve-hot", o.seed, tmp, dur/4); err != nil {
			return 0, 0, err
		}
		count(tcp.ph)
	}
	if kv == nil || kv.spec.via != viaCluster {
		if cluster, err = referenceTrace(ctx, "serve-cluster", o.seed, tmp, dur/4); err != nil {
			return 0, 0, err
		}
		count(cluster.ph)
	}
	tcpMetrics(tcp, m)
	clusterMetrics(cluster, m)
	// Lock fall-backs need concurrent writers to happen at all: the
	// workload's own phase shows them, or serve-hot's for a simulation.
	locked := tcp.stats
	if kv != nil {
		locked = own.stats
	}
	m.set("zkv.get_locked_frac", div(float64(locked.GetLocked), float64(locked.Gets)))

	// The layer replay.
	spec := kvSpecByName("embed-aside")
	if kv != nil {
		spec = kv.spec
	}
	n := replayOps
	if smoke {
		n /= 16
	}
	rs, err := newReplayStream(spec, o.seed, n)
	if err != nil {
		return 0, 0, err
	}
	if err := replayKV(rs, o.seed, tmp, m); err != nil {
		return 0, 0, err
	}
	se, _ := e.(*simEnv)
	if se == nil {
		se = refSim(o.seed)
	}
	if err := se.layerReplay(m); err != nil {
		return 0, 0, err
	}

	if kv != nil {
		closeLedger(w.name, plain, kvLedger(kv.spec, plain, plainStats, m), m)
	} else {
		closeLedger(w.name, plain, simLedger(se, m), m)
	}
	return attempted, failed, nil
}
