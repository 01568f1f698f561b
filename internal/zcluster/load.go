package zcluster

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"zcache/internal/hash"
	"zcache/internal/zkvproto"
)

// LoadConfig drives RunLoad, the load generator behind zkvbench: pipelined
// mixed GET/SET traffic routed through a ring, optionally with R=2 write
// fan-out, oracle verification, background writers, stalled connections and
// a mid-run live reshard. A single server is a ring of one node
// (Cluster.Nodes of length one); there is no separate single-node harness.
type LoadConfig struct {
	// Cluster configures routing and replication. Cluster.Options.Seed and
	// per-client derivation keep every connection's retry jitter
	// deterministic; Cluster.Router, if set, is shared with the caller
	// (zkvbench uses that to watch the flip).
	Cluster Config
	// Clients is the number of concurrent measured clients (default 4).
	// Each owns one pipelined connection per node it talks to.
	Clients int
	// Ops is the total measured operation count across clients
	// (default 100000). Replica and background-writer SETs ride along and
	// are accounted separately.
	Ops int
	// KeySpace is the number of distinct keys (default 65536).
	KeySpace int
	// ValBytes is the SET payload size before the 8-byte version stamp
	// (default 64).
	ValBytes int
	// GetFrac in [0,1] is the fraction of GETs; the rest are SETs. It has
	// no default: 0 issues no GETs at all.
	GetFrac float64
	// Pipeline is the number of measured requests per burst (default 16;
	// 1 means strict request/response).
	Pipeline int
	// Seed makes key sequences and backoff jitter reproducible.
	Seed uint64
	// Writers is the number of background clients that issue only SETs,
	// unmeasured, until the measured clients finish (default 0). They keep
	// eviction walks and relocation chains in flight, so the measured
	// percentiles show how readers behave under them. Their operations are
	// reported in WriterSets/WriterErrors and excluded from Ops and the
	// percentiles.
	Writers int
	// OpTimeout bounds each pipelined burst per node. 0 means no deadline
	// — only safe against a healthy network; any blackhole-style fault
	// needs a timeout to convert a hang into a classified, retryable error.
	OpTimeout time.Duration
	// Oracle makes SET payloads self-certifying — derived from the key
	// alone — and verifies every GET hit; any mismatch counts in
	// WrongGets. Self-certifying payloads are also what make retries and
	// replica fan-out harmless.
	Oracle bool
	// Stall opens this many extra connections, spread over the ring's
	// nodes, that never send a request and never read, held open for the
	// whole run — the stalled-reader scenario the server's deadlines must
	// absorb.
	Stall int
	// JoinNode, when non-empty, is a node added to the ring *live*, by a
	// controller goroutine, once JoinAfterOps measured operations have
	// completed cluster-wide — the reshard-under-load scenario. The load
	// keeps running through copy, flip, delta, and forget.
	JoinNode      string
	JoinAfterOps  int
	JoinPageBytes int
}

func (c LoadConfig) withDefaults() (LoadConfig, error) {
	if c.Clients == 0 {
		c.Clients = 4
	}
	if c.Ops == 0 {
		c.Ops = 100000
	}
	if c.KeySpace == 0 {
		c.KeySpace = 65536
	}
	if c.ValBytes == 0 {
		c.ValBytes = 64
	}
	if !(c.GetFrac >= 0 && c.GetFrac <= 1) {
		return c, fmt.Errorf("zcluster: get fraction %v outside [0,1]", c.GetFrac)
	}
	if c.Pipeline == 0 {
		c.Pipeline = 16
	}
	if c.Clients < 0 || c.Ops < 0 || c.KeySpace < 1 || c.ValBytes < 0 || c.Pipeline < 1 ||
		c.Writers < 0 || c.OpTimeout < 0 || c.Stall < 0 || c.JoinAfterOps < 0 {
		return c, fmt.Errorf("zcluster: invalid load config %+v", c)
	}
	return c, nil
}

// NodeLatency is one node's slice of the measured traffic.
type NodeLatency struct {
	Ops                  int
	P50, P99, P999, PMax time.Duration
}

// LoadReport is RunLoad's outcome.
type LoadReport struct {
	Ops       int
	Gets      int
	Sets      int
	Hits      int
	Misses    int
	Errors    int
	Wall      time.Duration
	OpsPerSec float64

	// Per-op latency percentiles (and the maximum) across every measured
	// operation, from the moment the request is queued to the moment its
	// reply is decoded — so pipeline queueing shows up in the tail, exactly
	// as a caller would experience it. Zero when no ops ran.
	P50, P99, P999, PMax time.Duration

	// Failure accounting by class. Timeouts/Resets/ProtoErrors/
	// Unclassified count transport failure events (one burst-killing
	// reset is one reset, however many ops it clipped); Busys counts
	// StatusBusy shed replies; Ambiguous counts mutations clipped
	// mid-pipeline (surfaced per the ErrAmbiguous contract, then
	// re-issued — self-certifying values make the re-issue harmless);
	// Retried counts ops re-queued for another attempt; Reconnects counts
	// successful re-dials.
	Timeouts, Resets, Busys, ProtoErrors, Unclassified int
	Ambiguous, Retried, Reconnects                     int

	// Oracle accounting: GET hits whose payload matched the key-derived
	// pattern, and those that did not. Any WrongGets is a correctness
	// failure of the serving path.
	VerifiedGets, WrongGets int

	// Failovers counts GET attempts rerouted to the key's replica after a
	// primary-side transport failure.
	Failovers int
	// ReplicaSets and ReplicaErrors account the R=2 write fan-out;
	// excluded from Ops and the percentiles.
	ReplicaSets, ReplicaErrors int
	// WriterSets and WriterErrors aggregate the background writers
	// (LoadConfig.Writers); excluded from Ops and the percentiles.
	WriterSets, WriterErrors int

	// PerNode breaks the measured latencies down by serving node. Keys are
	// node names.
	PerNode map[string]NodeLatency

	// Reshard is the mid-run join's report (nil when none was requested).
	Reshard *ReshardReport
}

// oracleFill writes the self-certifying payload for key: every byte is a
// pure function of the key, so any GET can be verified with no shared
// state — by this process, another client, or a later run with the same
// payload size.
func oracleFill(buf []byte, key uint64) {
	x := hash.Mix64(key ^ 0x5ca1ab1e0ddba11)
	for i := range buf {
		x = x*6364136223846793005 + 1442695040888963407
		buf[i] = byte(x >> 56)
	}
}

// percentile reads the q-quantile from an ascending-sorted latency slice.
func percentile(sorted []time.Duration, q float64) time.Duration {
	return sorted[int(q*float64(len(sorted)-1))]
}

// latencyOf sorts ls in place and summarises it; ls must be non-empty.
func latencyOf(ls []time.Duration) NodeLatency {
	slices.Sort(ls)
	return NodeLatency{
		Ops: len(ls),
		P50: percentile(ls, 0.50), P99: percentile(ls, 0.99),
		P999: percentile(ls, 0.999), PMax: ls[len(ls)-1],
	}
}

// maxConsecutiveRedials bounds how long a client hammers a dead node before
// giving up and failing the run.
const maxConsecutiveRedials = 30

// opRec is one generated operation. tries counts terminalless attempts:
// a GET whose primary keeps failing alternates to the replica on odd
// tries (client-side failover), and the record re-enters the backlog
// verbatim so the workload's key sequence stays deterministic under faults.
type opRec struct {
	get   bool
	key   uint64
	tries int
}

// classCounts is the per-client failure tally merged into the LoadReport.
type classCounts struct {
	timeouts, resets, busys, protoErrs, unclassified int
	ambiguous, retried, reconnects                   int
}

// countEvent tallies one transport failure event by class.
func (cc *classCounts) countEvent(class zkvproto.Class) {
	switch class {
	case zkvproto.ClassTimeout:
		cc.timeouts++
	case zkvproto.ClassReset:
		cc.resets++
	case zkvproto.ClassProtocol:
		cc.protoErrs++
	default:
		cc.unclassified++
	}
}

// clientResult is one client's tally.
type clientResult struct {
	gets, sets, hits, misses, errs int
	verified, wrong                int
	failovers                      int
	replicaSets, replicaErrs       int
	cc                             classCounts
	nodeLats                       map[string][]time.Duration
	err                            error
}

// RunLoad drives cfg.Ops measured operations through the ring from
// cfg.Clients concurrent clients, each pipelining per-node bursts, and —
// when a join is configured — reshards the cluster mid-run. Each client
// draws keys from a seeded xorshift stream, so runs are reproducible
// op-for-op; faults (timeouts, resets, StatusBusy sheds) are classified,
// counted, and retried — GETs transparently, mutations via the
// ambiguous-then-reissue path — rather than failing the run. Every
// generated operation must complete with a terminal reply: the run errors
// unless completed == requested, as it does for setup failures and for a
// client that lost a node entirely.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return LoadReport{}, err
	}
	ccfg, err := cfg.Cluster.withDefaults()
	if err != nil {
		return LoadReport{}, err
	}
	router := ccfg.Router
	if router == nil {
		ring, err := NewRing(ccfg.Nodes, ccfg.VNodes)
		if err != nil {
			return LoadReport{}, err
		}
		router = NewRouter(ring)
		ccfg.Router = router
	}

	// Stalled readers: connect, then do nothing for the whole run. The
	// server's idle/drain deadlines are what get them off the books.
	nodes := router.Ring().Nodes()
	for i := 0; i < cfg.Stall; i++ {
		conn, err := net.DialTimeout("tcp", ccfg.addrOf(nodes[i%len(nodes)]), 5*time.Second)
		if err != nil {
			return LoadReport{}, fmt.Errorf("zcluster: stall conn %d: %w", i, err)
		}
		defer conn.Close()
	}

	var completed atomic.Int64

	// The join controller: wait for the op threshold, then drain an arc
	// set onto the new node while the measured clients keep hammering.
	var (
		joinWG     sync.WaitGroup
		joinRep    *ReshardReport
		joinErr    error
		joinOpts   = ccfg
		joinActive = cfg.JoinNode != ""
	)
	// Closing stop ends the join wait and the background writers: the
	// measured clients are done (or failed).
	stop := make(chan struct{})
	if joinActive {
		joinWG.Add(1)
		go func() {
			defer joinWG.Done()
			for completed.Load() < int64(cfg.JoinAfterOps) {
				select {
				case <-stop:
					return // run ended (or failed) before the threshold
				case <-time.After(time.Millisecond):
				}
			}
			joinOpts.Options.Seed = hash.Mix64(cfg.Seed ^ 0xc0ffee)
			ctl, err := New(joinOpts)
			if err != nil {
				joinErr = err
				return
			}
			defer ctl.Close()
			joinRep, joinErr = ctl.AddNode(cfg.JoinNode, ReshardOpts{PageBytes: cfg.JoinPageBytes})
		}()
	}

	// Clients [0, Clients) are measured; [Clients, Clients+Writers) are the
	// background writers, which run until stop closes.
	results := make([]clientResult, cfg.Clients+cfg.Writers)
	var measured, writers sync.WaitGroup
	start := time.Now()
	for ci := range results {
		wg := &measured
		if ci >= cfg.Clients {
			wg = &writers
		}
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			results[ci] = runClient(cfg, ccfg, router, ci, stop, &completed)
		}(ci)
	}
	measured.Wait()
	wall := time.Since(start)
	close(stop)
	writers.Wait()
	joinWG.Wait()

	rep := LoadReport{Wall: wall, PerNode: make(map[string]NodeLatency)}
	nodeLats := make(map[string][]time.Duration)
	for i := range results {
		r := &results[i]
		if r.err != nil {
			return rep, fmt.Errorf("zcluster: load client %d: %w", i, r.err)
		}
		if i >= cfg.Clients {
			rep.WriterSets += r.sets
			rep.WriterErrors += r.errs
			rep.Reconnects += r.cc.reconnects
			continue
		}
		rep.Gets += r.gets
		rep.Sets += r.sets
		rep.Hits += r.hits
		rep.Misses += r.misses
		rep.Errors += r.errs
		rep.VerifiedGets += r.verified
		rep.WrongGets += r.wrong
		rep.Failovers += r.failovers
		rep.ReplicaSets += r.replicaSets
		rep.ReplicaErrors += r.replicaErrs
		rep.Timeouts += r.cc.timeouts
		rep.Resets += r.cc.resets
		rep.Busys += r.cc.busys
		rep.ProtoErrors += r.cc.protoErrs
		rep.Unclassified += r.cc.unclassified
		rep.Ambiguous += r.cc.ambiguous
		rep.Retried += r.cc.retried
		rep.Reconnects += r.cc.reconnects
		for node, ls := range r.nodeLats {
			nodeLats[node] = append(nodeLats[node], ls...)
		}
	}
	rep.Ops = rep.Gets + rep.Sets
	if wall > 0 {
		rep.OpsPerSec = float64(rep.Ops) / wall.Seconds()
	}
	var lats []time.Duration
	for node, ls := range nodeLats {
		if len(ls) > 0 {
			rep.PerNode[node] = latencyOf(ls)
			lats = append(lats, ls...) // sorted runs: one node's is the whole answer
		}
	}
	if len(lats) > 0 {
		all := latencyOf(lats)
		rep.P50, rep.P99, rep.P999, rep.PMax = all.P50, all.P99, all.P999, all.PMax
	}
	if joinActive {
		rep.Reshard = joinRep
		if joinErr != nil {
			return rep, fmt.Errorf("zcluster: mid-run join: %w", joinErr)
		}
		if joinRep == nil {
			return rep, fmt.Errorf("zcluster: run finished before the join threshold (%d ops) was reached", cfg.JoinAfterOps)
		}
	}
	if rep.Ops != cfg.Ops {
		// The in-flight guarantee: every generated op reached a terminal
		// GET/SET reply despite faults, failovers, and the routing flip.
		return rep, fmt.Errorf("zcluster: completed %d of %d ops", rep.Ops, cfg.Ops)
	}
	return rep, nil
}

// qop is one queued request awaiting its reply on some node's pipe.
type qop struct {
	op      opRec
	at      time.Time
	replica bool // an R=2 fan-out SET: unmeasured redundancy
}

// pipe is one client's pipelined connection to one node.
type pipe struct {
	node   string
	cl     *zkvproto.Client
	q      []qop           // the current burst's requests, in wire order
	failed bool            // broke during the current burst
	lats   []time.Duration // measured latencies this node served
}

// runClient is one client's whole life: generate ops, route each burst
// through the router's *current* ring — so a mid-run flip simply changes
// where the next burst goes — partition it into per-node pipelines, flush,
// drain, classify and absorb faults, verify oracle values. A node whose pipe
// fails gets its unanswered ops re-queued (GETs alternating onto the replica
// when replication allows) while other nodes' replies still count.
//
// Clients numbered from cfg.Clients up are the background writers: the same
// loop, all SETs, unmeasured, ended by stop instead of an op count.
func runClient(cfg LoadConfig, ccfg Config, router *Router, ci int, stop <-chan struct{}, completed *atomic.Int64) (res clientResult) {
	rng := hash.Mix64(cfg.Seed ^ (uint64(ci)+1)*0x9e3779b97f4a7c15)
	jitterSeed := rng

	ops := cfg.Ops / cfg.Clients
	if ci < cfg.Ops%cfg.Clients {
		ops++
	}
	// GetFrac as a threshold over 16 bits of the op's random draw:
	// deterministic, no float per op.
	getCut := uint64(cfg.GetFrac * 65536)
	writer := ci >= cfg.Clients
	if writer {
		ops, getCut = math.MaxInt, 0
	}
	// Disjoint stamp ranges per client keep cross-client versions from
	// colliding; the payload is key-derived either way.
	version := ccfg.StampBase + (uint64(ci)+1)<<40
	key := make([]byte, 8)
	val := make([]byte, cfg.ValBytes)
	expect := make([]byte, cfg.ValBytes)
	env := make([]byte, 0, cfg.ValBytes+zkvproto.StampLen)
	burst := make([]opRec, 0, cfg.Pipeline)
	var backlog []opRec // clipped/shed ops awaiting re-issue
	generated, done, redials := 0, 0, 0
	consecFails := 0 // bursts failed in a row; paces the redial storm

	// One pipe per node, dialed on first use and kept in that order so a
	// burst is flushed and drained the same way every run.
	byNode := make(map[string]*pipe)
	var pipes []*pipe
	defer func() {
		for _, p := range pipes {
			p.cl.Close()
		}
	}()
	pipeFor := func(node string) (*pipe, error) {
		if p, ok := byNode[node]; ok {
			return p, nil
		}
		cl, err := ccfg.dial(node, jitterSeed)
		if err != nil {
			return nil, fmt.Errorf("node %s: %w", node, err)
		}
		p := &pipe{node: node, cl: cl}
		if !writer {
			// An even share of the ring is the estimate; append covers skew.
			p.lats = make([]time.Duration, 0, ops/len(router.Ring().nodes))
		}
		byNode[node] = p
		pipes = append(pipes, p)
		return p, nil
	}

	// pause sleeps the jittered exponential backoff before retry n,
	// deterministic in (seed, n).
	pause := func(seed uint64, n int) {
		time.Sleep(zkvproto.Backoff(seed, uint64(n), n, 2*time.Millisecond, 300*time.Millisecond))
	}

	// requeue sends every unanswered op from index from on of a broken
	// pipe (replies [0,from) were already terminal) back through the
	// backlog and reconnects the pipe with seeded backoff. Returns false
	// when the node stays unreachable past the redial budget.
	requeue := func(p *pipe, from int, err error) bool {
		res.cc.countEvent(zkvproto.Classify(err))
		for _, q := range p.q[from:] {
			if q.replica {
				res.replicaErrs++
				continue
			}
			if !q.op.get {
				// The mutation may or may not have executed: the
				// ambiguity contract. Self-certifying (or constant)
				// payloads make the re-issue harmless.
				res.cc.ambiguous++
			}
			res.cc.retried++
			q.op.tries++
			backlog = append(backlog, q.op)
		}
		p.q, p.failed = p.q[:0], true
		// Back off before re-dialing when failures are consecutive:
		// without this, a shed-then-close from an exhausted server pool
		// turns into a reconnect hammer that keeps the pool exhausted.
		consecFails++
		if consecFails > 1 {
			pause(jitterSeed^0xf00d, consecFails-1)
		}
		for {
			if err = p.cl.Reconnect(); err == nil {
				res.cc.reconnects++
				redials = 0
				return true
			}
			redials++
			if redials >= maxConsecutiveRedials {
				res.err = fmt.Errorf("node %s unreachable after %d redials: %w", p.node, redials, err)
				return false
			}
			pause(jitterSeed, redials)
		}
	}

	// send queues one frame on p, arming the burst deadline with the
	// pipe's first frame.
	send := func(p *pipe, op opRec, replica bool) error {
		if cfg.OpTimeout > 0 && len(p.q) == 0 {
			p.cl.SetDeadline(time.Now().Add(cfg.OpTimeout))
		}
		var err error
		if op.get {
			err = p.cl.QueueGet(key)
		} else {
			err = p.cl.QueueSet(key, env)
		}
		if err == nil {
			p.q = append(p.q, qop{op: op, at: time.Now(), replica: replica})
		}
		return err
	}

	for done < ops {
		select {
		case <-stop:
			return res
		default:
		}

		// Assemble the burst: clipped ops first, fresh after.
		burst = burst[:0]
		for len(burst) < cfg.Pipeline && len(backlog) > 0 {
			burst = append(burst, backlog[len(backlog)-1])
			backlog = backlog[:len(backlog)-1]
		}
		for len(burst) < cfg.Pipeline && generated < ops {
			// xorshift64*
			rng ^= rng >> 12
			rng ^= rng << 25
			rng ^= rng >> 27
			draw := rng * 0x2545f4914f6cdd1d
			burst = append(burst, opRec{get: draw>>48&0xffff < getCut, key: draw % uint64(cfg.KeySpace)})
			generated++
		}

		// Partition by node under the current ring and queue the frames.
		ring := router.Ring()
		for _, p := range pipes {
			p.q, p.failed = p.q[:0], false
		}
		doneBefore, failedBefore := done, consecFails
		for _, op := range burst {
			binary.BigEndian.PutUint64(key, op.key)
			pri, rep := ring.PrimaryReplica(PointOf(key))
			r2 := ccfg.Replication == 2 && rep != pri
			node := pri
			if op.get && r2 && op.tries%2 == 1 {
				// Failover: this GET's primary already ate an attempt.
				node = rep
				res.failovers++
			}
			p, err := pipeFor(node)
			if err != nil {
				res.err = err
				return res
			}
			if p.failed {
				op.tries++
				res.cc.retried++
				backlog = append(backlog, op)
				continue
			}
			if !op.get {
				if cfg.Oracle {
					oracleFill(val, op.key)
				}
				version++
				env = zkvproto.AppendStamped(env[:0], version, val)
			}
			if err := send(p, op, false); err != nil {
				if !requeue(p, 0, err) {
					return res
				}
				op.tries++
				res.cc.retried++
				if !op.get {
					res.cc.ambiguous++
				}
				backlog = append(backlog, op)
				continue
			}
			// R=2 write fan-out rides the same burst on the replica's pipe.
			if !op.get && r2 {
				rp, err := pipeFor(rep)
				if err != nil {
					res.err = err
					return res
				}
				if rp.failed {
					continue
				}
				if err := send(rp, op, true); err != nil && !requeue(rp, 0, err) {
					return res
				}
			}
		}

		// Flush, then drain each node's pipe in queue order.
		for _, p := range pipes {
			if len(p.q) == 0 {
				continue
			}
			if err := p.cl.Flush(); err != nil && !requeue(p, 0, err) {
				return res
			}
		}
		for _, p := range pipes {
			for qi, rec := range p.q {
				resp, err := p.cl.ReadReply()
				if err != nil {
					if !requeue(p, qi, err) {
						return res
					}
					break
				}
				if rec.replica {
					if resp.Status == zkvproto.StatusOK {
						res.replicaSets++
					} else {
						res.replicaErrs++
					}
					continue
				}
				if resp.Status == zkvproto.StatusBusy {
					// Shed, not executed: retry is safe for any op.
					res.cc.busys++
					res.cc.retried++
					rec.op.tries++
					backlog = append(backlog, rec.op)
					continue
				}
				if !writer {
					p.lats = append(p.lats, time.Since(rec.at))
				}
				done++
				switch {
				case rec.op.get && resp.Status == zkvproto.StatusOK:
					res.gets++
					res.hits++
					if cfg.Oracle {
						oracleFill(expect, rec.op.key)
						_, payload := versionOf(resp.Val)
						if bytes.Equal(payload, expect) {
							res.verified++
						} else {
							res.wrong++
						}
					}
				case rec.op.get && resp.Status == zkvproto.StatusNotFound:
					res.gets++
					res.misses++
				case !rec.op.get && resp.Status == zkvproto.StatusOK:
					res.sets++
				default:
					res.errs++
				}
			}
		}
		if !writer {
			completed.Add(int64(done - doneBefore))
		}
		if consecFails == failedBefore {
			consecFails = 0
		}
	}
	res.nodeLats = make(map[string][]time.Duration, len(pipes))
	for _, p := range pipes {
		res.nodeLats[p.node] = p.lats
	}
	return res
}
