package zcluster

import (
	"bufio"
	"bytes"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zcache/internal/netchaos"
	"zcache/internal/zkvproto"
)

// The single-node cases of the load harness: a one-node ring is all the
// "single-node harness" there is.

func TestRunLoad(t *testing.T) {
	rep, err := RunLoad(LoadConfig{
		Cluster: Config{Nodes: startNodes(t, 1)}, Clients: 4, Ops: 20000, KeySpace: 1024,
		ValBytes: 32, GetFrac: 0.8, Pipeline: 16, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("load saw %d errors", rep.Errors)
	}
	if rep.Ops != 20000 {
		t.Fatalf("completed %d ops, want 20000", rep.Ops)
	}
	if rep.Gets == 0 || rep.Sets == 0 || rep.Hits == 0 {
		t.Fatalf("degenerate mix: %+v", rep)
	}
	if rep.OpsPerSec <= 0 {
		t.Fatalf("ops/s = %v", rep.OpsPerSec)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 || rep.P999 < rep.P99 || rep.PMax < rep.P999 {
		t.Fatalf("latency percentiles not monotone: p50=%v p99=%v p999=%v max=%v",
			rep.P50, rep.P99, rep.P999, rep.PMax)
	}
}

// TestRunLoadGetFracZero: GetFrac has no default, so 0 is an all-SET run —
// the fill pass CI's restart drill wants — not a silent 0.9.
func TestRunLoadGetFracZero(t *testing.T) {
	rep, err := RunLoad(LoadConfig{
		Cluster: Config{Nodes: startNodes(t, 1)}, Clients: 2, Ops: 4000, KeySpace: 512,
		ValBytes: 16, GetFrac: 0, Pipeline: 8, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gets != 0 || rep.Sets != 4000 {
		t.Fatalf("GetFrac 0 issued %d GETs and %d SETs, want 0 and 4000", rep.Gets, rep.Sets)
	}
}

// TestRunLoadWriters: a background writer is the measured client's loop run
// unmeasured with no GETs. It must make progress, stop when the measured
// clients do, and leave Ops and the percentiles to the measured readers.
func TestRunLoadWriters(t *testing.T) {
	nodes := startNodes(t, 1)
	base := LoadConfig{
		Cluster: Config{Nodes: nodes}, Clients: 2, Ops: 4000, KeySpace: 512,
		ValBytes: 16, Pipeline: 8, Seed: 4, Oracle: true,
	}
	if _, err := RunLoad(base); err != nil { // GetFrac 0: warm every key
		t.Fatal(err)
	}
	cfg := base
	cfg.Ops, cfg.GetFrac, cfg.Writers, cfg.Stall = 20000, 1, 1, 1
	rep, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WriterSets == 0 || rep.WriterErrors != 0 {
		t.Fatalf("writer made %d sets, %d errors", rep.WriterSets, rep.WriterErrors)
	}
	if rep.Ops != cfg.Ops || rep.Sets != 0 || rep.Gets != cfg.Ops {
		t.Fatalf("writer ops leaked into the measured counts: %+v", rep)
	}
	if got := rep.PerNode[nodes[0]].Ops; got != cfg.Ops {
		t.Fatalf("%d latencies recorded for %d measured ops", got, cfg.Ops)
	}
	if rep.WrongGets != 0 || rep.VerifiedGets == 0 {
		t.Fatalf("readers under write pressure: %d verified, %d wrong", rep.VerifiedGets, rep.WrongGets)
	}
}

// TestRunLoadDeterministic: one client, one seed, a fresh cluster each time
// — the op stream and every node's outcome are reproducible count for count.
func TestRunLoadDeterministic(t *testing.T) {
	for _, n := range []int{1, 3} {
		run := func() [4]int {
			rep, err := RunLoad(LoadConfig{
				Cluster: Config{Nodes: startNodes(t, n), VNodes: 16}, Clients: 1, Ops: 6000,
				KeySpace: 8192, ValBytes: 16, GetFrac: 0.6, Pipeline: 8, Seed: 21,
			})
			if err != nil {
				t.Fatal(err)
			}
			return [4]int{rep.Gets, rep.Sets, rep.Hits, rep.Misses}
		}
		if a, b := run(), run(); a != b || a[2] == 0 || a[3] == 0 {
			t.Fatalf("%d nodes: (gets, sets, hits, misses) %v then %v", n, a, b)
		}
	}
}

// hangUp, set as the status of a fakeNode reply, makes the node close the
// connection one byte into that reply's header.
const hangUp = 0xff

// fakeNode speaks just enough zkvproto to answer each request through
// reply, which sees the request's 0-based arrival number.
func fakeNode(t *testing.T, reply func(n int64, req *zkvproto.Request, resp *zkvproto.Response)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var served atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				bw := bufio.NewWriter(conn)
				var req zkvproto.Request
				var resp zkvproto.Response
				for {
					if err := req.ReadFrom(br); err != nil {
						return
					}
					resp.Status, resp.Val = zkvproto.StatusOK, nil
					reply(served.Add(1)-1, &req, &resp)
					if resp.Status == hangUp {
						bw.WriteByte(zkvproto.StatusOK)
						bw.Flush()
						return
					}
					if err := resp.WriteTo(bw); err != nil {
						return
					}
					if br.Buffered() == 0 {
						if err := bw.Flush(); err != nil {
							return
						}
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestRunLoadDroppedOp: an op answered with anything but a terminal GET/SET
// status is a dropped op, and the run fails on it — for one node as for many.
func TestRunLoadDroppedOp(t *testing.T) {
	addr := fakeNode(t, func(n int64, _ *zkvproto.Request, resp *zkvproto.Response) {
		if n == 100 {
			resp.Status, resp.Val = zkvproto.StatusErr, []byte("no")
		}
	})
	rep, err := RunLoad(LoadConfig{
		Cluster: Config{Nodes: []string{addr}}, Clients: 1, Ops: 400, KeySpace: 64,
		ValBytes: 8, GetFrac: 0.5, Pipeline: 8, Seed: 1,
	})
	if err == nil || !strings.Contains(err.Error(), "completed 399 of 400 ops") {
		t.Fatalf("dropped op not reported: err=%v", err)
	}
	if rep.Errors != 1 {
		t.Fatalf("report counts %d errors, want 1", rep.Errors)
	}
}

// TestChaosOracleDetectsWrongValues proves the oracle is a real check: a
// server that acknowledges writes but returns fabricated reads must show
// up as WrongGets, the condition zkvbench exits 2 on.
func TestChaosOracleDetectsWrongValues(t *testing.T) {
	addr := fakeNode(t, func(_ int64, req *zkvproto.Request, resp *zkvproto.Response) {
		if req.Op == zkvproto.OpGet {
			resp.Val = []byte("not what you stored, promise")
		}
	})
	rep, err := RunLoad(LoadConfig{
		Cluster: Config{Nodes: []string{addr}}, Clients: 2, Ops: 2000, KeySpace: 128,
		ValBytes: 32, GetFrac: 0.5, Pipeline: 8, Seed: 3, Oracle: true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v", err)
	}
	if rep.WrongGets == 0 {
		t.Fatalf("oracle verified a lying server: %+v", rep)
	}
	if rep.VerifiedGets != 0 {
		t.Fatalf("%d GETs verified against garbage values", rep.VerifiedGets)
	}
}

// TestRunLoadChaos drives the full load harness through a netchaos proxy
// injecting latency, resets, and blackholes. The contract under faults:
// every operation eventually completes (the clients retry and reconnect),
// every transport error is classified, and — with the value oracle on —
// no GET ever returns wrong bytes.
func TestRunLoadChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos load run in -short mode")
	}
	nodes := startNodes(t, 1)
	spec, err := netchaos.ParseSpec(
		"latency:d=200us,jitter=1ms,p=0.05;reset:p=0.01;drop:p=0.002,n=2", 11)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(nodes[0], spec)
	if err := proxy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	rep, err := RunLoad(LoadConfig{
		Cluster: Config{Nodes: nodes, DialAddr: map[string]string{nodes[0]: proxy.Addr()},
			Options: zkvproto.Options{OpTimeout: 500 * time.Millisecond}},
		Clients: 4, Ops: 24000, KeySpace: 1024,
		ValBytes: 48, GetFrac: 0.7, Pipeline: 16, Seed: 9,
		Oracle: true, Stall: 1,
	})
	if err != nil {
		t.Fatalf("RunLoad under chaos: %v", err)
	}
	if rep.Ops != 24000 {
		t.Fatalf("completed %d ops, want 24000", rep.Ops)
	}
	if rep.WrongGets > 0 {
		t.Fatalf("%d wrong GETs under chaos (%d verified)", rep.WrongGets, rep.VerifiedGets)
	}
	if rep.Unclassified > 0 {
		t.Fatalf("%d unclassified transport errors", rep.Unclassified)
	}
	if rep.VerifiedGets == 0 {
		t.Fatal("oracle verified no GET hits; workload degenerate")
	}
	// With reset:p=0.01 over thousands of chunks the fault path must have
	// actually been exercised.
	faults := rep.Timeouts + rep.Resets + rep.Busys + rep.ProtoErrors
	if faults == 0 || rep.Retried == 0 || rep.Reconnects == 0 {
		t.Fatalf("chaos run exercised no fault handling: %+v", rep)
	}
	st := proxy.Stats()
	if st.Resets == 0 {
		t.Fatalf("proxy injected no resets: %s", st.Describe())
	}
	t.Logf("chaos: %d faults (%d timeouts, %d resets, %d proto), %d retried, %d reconnects, %d ambiguous; proxy: %s",
		faults, rep.Timeouts, rep.Resets, rep.ProtoErrors, rep.Retried, rep.Reconnects,
		rep.Ambiguous, st.Describe())
}

// TestClusterLoadReadRepair drives read-repair through the drill: after an R=2
// fill every key's primary copy is deleted behind the client's back, and a
// GET-only pass must serve every key it finds from the replica — right
// bytes, per the oracle — and write the primary copies back.
func TestClusterLoadReadRepair(t *testing.T) {
	addrs := startNodes(t, 3)
	cfg := LoadConfig{
		Cluster: Config{Nodes: addrs, Replication: 2, VNodes: 32},
		Clients: 2, Ops: 4000, KeySpace: 256, ValBytes: 24, Pipeline: 8, Seed: 13, Oracle: true,
	}
	if _, err := RunLoad(cfg); err != nil { // GetFrac 0: both copies of every key
		t.Fatal(err)
	}

	ring, err := NewRing(addrs, 32)
	if err != nil {
		t.Fatal(err)
	}
	raw := make(map[string]*zkvproto.Client)
	for _, a := range addrs {
		if raw[a], err = zkvproto.Dial(a); err != nil {
			t.Fatal(err)
		}
		defer raw[a].Close()
	}
	key := make([]byte, 8)
	var lost []uint64
	for k := 0; k < cfg.KeySpace; k++ {
		putKey(key, uint64(k))
		ok, err := raw[ring.Primary(PointOf(key))].Del(key)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			lost = append(lost, uint64(k))
		}
	}
	if len(lost) < cfg.KeySpace/2 {
		t.Fatalf("the fill left only %d of %d keys on their primaries", len(lost), cfg.KeySpace)
	}

	cfg.GetFrac, cfg.Seed = 1, 14
	rep, err := RunLoad(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WrongGets != 0 || rep.Hits == 0 || rep.Repairs == 0 {
		t.Fatalf("GET pass over lost primaries: %d wrong, %d hits, %d repairs", rep.WrongGets, rep.Hits, rep.Repairs)
	}
	restored, expect := 0, make([]byte, cfg.ValBytes)
	for _, k := range lost {
		putKey(key, k)
		v, ok, err := raw[ring.Primary(PointOf(key))].Get(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // the seeded GET stream never asked for it
		}
		restored++
		oracleFill(expect, k)
		if _, payload := versionOf(v); !bytes.Equal(payload, expect) {
			t.Fatalf("key %d repaired with wrong bytes", k)
		}
	}
	if restored == 0 || restored > rep.Repairs {
		t.Fatalf("%d primary copies restored by %d repairs (of %d lost)", restored, rep.Repairs, len(lost))
	}
	t.Logf("%d of %d lost primary copies restored by %d repairs", restored, len(lost), rep.Repairs)
}

// TestClusterLoadFailoverIsVerified: the oracle sees the failover path. Behind a
// fully partitioned primary (replies blackholed) a replica that fabricates
// its reads must show up as wrong GETs, one per read it served.
func TestClusterLoadFailoverIsVerified(t *testing.T) {
	honest := startNode(t, 100)
	spec, err := netchaos.ParseSpec("drop:p=1,dir=s2c", 1)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(honest, spec)
	if err := proxy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	liar := fakeNode(t, func(_ int64, req *zkvproto.Request, resp *zkvproto.Response) {
		if req.Op == zkvproto.OpGet {
			resp.Val = []byte("not what you stored, promise")
		}
	})

	rep, err := RunLoad(LoadConfig{
		Cluster: Config{
			Nodes: []string{honest, liar}, Replication: 2, VNodes: 32,
			DialAddr: map[string]string{honest: proxy.Addr()},
			Options:  zkvproto.Options{OpTimeout: 50 * time.Millisecond},
		},
		Clients: 1, Ops: 48, KeySpace: 64, ValBytes: 16, GetFrac: 1, Pipeline: 16, Seed: 5, Oracle: true,
	})
	if err != nil {
		t.Fatalf("RunLoad: %v (report %+v)", err, rep)
	}
	if rep.Failovers == 0 || rep.Timeouts == 0 {
		t.Fatalf("no read failed over (%d failovers, %d timeouts); test is vacuous", rep.Failovers, rep.Timeouts)
	}
	if rep.WrongGets != rep.Ops || rep.VerifiedGets != 0 {
		t.Fatalf("the liar served all %d reads, %d of them by failover, yet %d were wrong and %d verified",
			rep.Ops, rep.Failovers, rep.WrongGets, rep.VerifiedGets)
	}
}
