package zcluster

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// LoadConfig drives RunLoad, the load generator behind zkvbench: batched
// mixed GET/SET traffic through one Client per load client, optionally with
// oracle verification, background writers, stalled connections and a
// mid-run live reshard. A single server is a ring of one node
// (Cluster.Nodes of length one); there is no separate single-node harness.
type LoadConfig struct {
	// Cluster configures every load client (Options.OpTimeout is the one
	// deadline knob: any blackhole-style fault needs it). Each client
	// derives its own jitter seed and stamp range; Cluster.Router, if set,
	// is shared with the caller (zkvbench uses that to watch the flip).
	Cluster Config
	// Clients is the number of concurrent measured clients (default 4).
	// Each is one Client: one pipelined connection per node it talks to.
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
	// Oracle makes SET payloads self-certifying — derived from the key
	// alone — and verifies every GET hit; any mismatch counts in
	// WrongGets. Self-certifying payloads are also what make re-issued
	// mutations harmless.
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
		c.Writers < 0 || c.Stall < 0 || c.JoinAfterOps < 0 {
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
	// Unclassified and Reconnects sum the clients' Client.Stats: transport
	// failure events (one burst-killing reset is one reset, however many
	// ops it clipped) and successful re-dials. The rest count what the
	// clients returned: Busys the shed (StatusBusy) ops, Ambiguous the
	// mutations clipped mid-pipeline (surfaced per the ErrAmbiguous
	// contract, then re-issued — self-certifying values make the re-issue
	// harmless), Retried every op re-issued for another attempt.
	Timeouts, Resets, Busys, ProtoErrors, Unclassified int
	Ambiguous, Retried, Reconnects                     int

	// Oracle accounting: GET hits whose payload matched the key-derived
	// pattern, and those that did not. Any WrongGets is a correctness
	// failure of the serving path.
	VerifiedGets, WrongGets int

	// The measured clients' Client.Stats, summed: reads the replica served
	// for a failed primary, read-repair writes, R=2 copies acknowledged and
	// failed. Copies and repairs are outside Ops and the percentiles.
	Failovers, Repairs, ReplicaSets, ReplicaErrors int
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

// opRec is one generated operation. A shed or clipped op re-enters the
// backlog verbatim, so the workload's key sequence stays deterministic under
// faults.
type opRec struct {
	get bool
	key uint64
}

// clientResult is one client's tally: what its operations came to, and the
// Client.Stats it finished with.
type clientResult struct {
	gets, sets, hits, misses, errs int
	verified, wrong                int
	busys, ambiguous, retried      int
	stats                          Stats
	nodeLats                       map[string][]time.Duration
	err                            error
}

// RunLoad drives cfg.Ops measured operations through cfg.Clients concurrent
// cluster clients, a batch of cfg.Pipeline per flush each, and — when a join
// is configured — reshards the cluster mid-run. Each client draws keys from
// a seeded xorshift stream, so runs are reproducible op-for-op; the client
// classifies and returns what a fault (timeout, reset, StatusBusy shed)
// clipped, and the harness counts and re-issues it rather than failing the
// run. Every generated operation must complete with a terminal reply: the
// run errors unless completed == requested, as it does for setup failures
// and for a client that lost a node entirely.
func RunLoad(cfg LoadConfig) (LoadReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return LoadReport{}, err
	}
	// The join controller's router is the one every load client shares.
	ccfg := cfg.Cluster
	ccfg.Seed = hash.Mix64(cfg.Seed ^ 0xc0ffee)
	ctl, err := New(ccfg)
	if err != nil {
		return LoadReport{}, err
	}
	defer ctl.Close()
	ccfg.Router = ctl.Router()

	// Stalled readers: connect, then do nothing for the whole run. The
	// server's idle/drain deadlines are what get them off the books.
	nodes := ccfg.Router.Ring().Nodes()
	d := net.Dialer{Timeout: 5 * time.Second}
	for i := 0; i < cfg.Stall; i++ {
		conn, err := d.Dial("tcp", ccfg.addrOf(nodes[i%len(nodes)]))
		if err != nil {
			return LoadReport{}, fmt.Errorf("zcluster: stall conn %d: %w", i, err)
		}
		defer conn.Close()
	}

	var completed atomic.Int64

	// The join: wait for the op threshold, then drain an arc set onto the
	// new node while the measured clients keep hammering.
	var (
		joinWG     sync.WaitGroup
		joinRep    *ReshardReport
		joinErr    error
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
			results[ci] = runClient(cfg, ccfg, ci, stop, &completed)
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
		rep.Reconnects += int(r.stats.Reconnects)
		if i >= cfg.Clients {
			rep.WriterSets += r.sets
			rep.WriterErrors += r.errs
			continue
		}
		rep.Gets += r.gets
		rep.Sets += r.sets
		rep.Hits += r.hits
		rep.Misses += r.misses
		rep.Errors += r.errs
		rep.VerifiedGets += r.verified
		rep.WrongGets += r.wrong
		rep.Failovers += int(r.stats.Failovers)
		rep.Repairs += int(r.stats.Repairs)
		rep.ReplicaSets += int(r.stats.ReplicaSets)
		rep.ReplicaErrors += int(r.stats.ReplicaErrors)
		rep.Timeouts += int(r.stats.Faults[zkvproto.ClassTimeout])
		rep.Resets += int(r.stats.Faults[zkvproto.ClassReset])
		rep.ProtoErrors += int(r.stats.Faults[zkvproto.ClassProtocol])
		rep.Unclassified += int(r.stats.Faults[zkvproto.ClassUnknown])
		rep.Busys += r.busys
		rep.Ambiguous += r.ambiguous
		rep.Retried += r.retried
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

// runClient is one load client's whole life: generate ops, hand each burst
// to its cluster client as one batch — routed through the router's *current*
// ring, so a mid-run flip simply changes where the next burst goes — then
// tally and verify the terminal results and re-issue the returned ones.
//
// Clients numbered from cfg.Clients up are the background writers: the same
// loop, all SETs, unmeasured, ended by stop instead of an op count.
func runClient(cfg LoadConfig, ccfg Config, ci int, stop <-chan struct{}, completed *atomic.Int64) (res clientResult) {
	rng := hash.Mix64(cfg.Seed ^ (uint64(ci)+1)*0x9e3779b97f4a7c15)

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
	ccfg.StampBase += (uint64(ci) + 1) << 40
	ccfg.Seed = rng
	cl, err := New(ccfg)
	if err != nil {
		res.err = err
		return res
	}
	defer func() {
		res.stats = cl.Stats()
		cl.Close()
	}()
	keys := make([]byte, 8*cfg.Pipeline) // a queued key stays put until its op returns
	val := make([]byte, cfg.ValBytes)
	expect := make([]byte, cfg.ValBytes)
	burst := make([]opRec, 0, cfg.Pipeline)
	at := make([]time.Time, cfg.Pipeline) // when burst[i] was queued
	var backlog []opRec                   // returned ops awaiting re-issue
	res.nodeLats = make(map[string][]time.Duration)
	generated, done := 0, 0

	tally := func(r Result) {
		op := burst[r.Op]
		if r.Err != nil {
			if errors.Is(r.Err, errUnreachable) {
				res.err = r.Err
			}
			switch zkvproto.Classify(r.Err) {
			case zkvproto.ClassBusy: // shed, not executed
				res.busys++
			case zkvproto.ClassAmbiguous: // may have executed: the payload makes the re-issue harmless
				res.ambiguous++
			}
			res.retried++
			backlog = append(backlog, op)
			return
		}
		if !writer {
			res.nodeLats[r.Node] = append(res.nodeLats[r.Node], time.Since(at[r.Op]))
		}
		done++
		switch {
		case op.get && r.Status == zkvproto.StatusOK:
			res.gets++
			res.hits++
			if cfg.Oracle {
				oracleFill(expect, op.key)
				if bytes.Equal(r.Val, expect) {
					res.verified++
				} else {
					res.wrong++
				}
			}
		case op.get && r.Status == zkvproto.StatusNotFound:
			res.gets++
			res.misses++
		case !op.get && r.Status == zkvproto.StatusOK:
			res.sets++
		default:
			res.errs++
		}
	}

	for done < ops && res.err == nil {
		select {
		case <-stop:
			return res
		default:
		}

		// Assemble the burst: returned ops first, fresh after.
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

		for i, op := range burst {
			key := keys[8*i : 8*i+8]
			binary.BigEndian.PutUint64(key, op.key)
			at[i] = time.Now()
			if op.get {
				cl.Queue(zkvproto.OpGet, key, nil)
				continue
			}
			if cfg.Oracle {
				oracleFill(val, op.key)
			}
			cl.Queue(zkvproto.OpSet, key, val)
		}
		doneBefore := done
		cl.Drain(tally)
		if !writer {
			completed.Add(int64(done - doneBefore))
		}
	}
	return res
}
