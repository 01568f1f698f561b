package main

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"regexp"
	"strings"
	"testing"
	"time"

	"zcache/internal/zkv"
	"zcache/internal/zkvproto"
)

// startNode boots one in-process zcached node and returns its address.
func startNode(t *testing.T, seed uint64) string {
	t.Helper()
	store, err := zkv.Open(zkv.Config{Shards: 2, Ways: 4, Rows: 512, Levels: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := zkv.NewServer(store, zkv.ServerConfig{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("node shutdown: %v", err)
		}
		<-errc
	})
	return ln.Addr().String()
}

// lyingNode acknowledges every SET and answers every GET with a hit whose
// value is garbage.
func lyingNode(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
				var req zkvproto.Request
				var resp zkvproto.Response
				for {
					if err := req.ReadFrom(br); err != nil {
						return
					}
					resp.Status, resp.Val = zkvproto.StatusOK, nil
					if req.Op == zkvproto.OpGet {
						resp.Val = []byte("not what you stored, promise")
					}
					if resp.WriteTo(bw) != nil || (br.Buffered() == 0 && bw.Flush() != nil) {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

func zkvbench(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// hitRateLine is what CI's restart-smoke job parses out of the report.
var hitRateLine = regexp.MustCompile(`(?m)^.*hit rate [0-9.]+.*$`)

func TestRunOneNode(t *testing.T) {
	addr := startNode(t, 1)
	load := []string{"-addr", addr, "-clients", "2", "-ops", "4000", "-keys", "512", "-seed", "3", "-oracle"}
	if code, _, errw := zkvbench(append(load, "-get-frac", "0")...); code != 0 {
		t.Fatalf("fill pass exit %d: %s", code, errw)
	}
	code, out, errw := zkvbench(append(load, "-get-frac", "1")...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errw)
	}
	if got := hitRateLine.FindAllString(out, -1); len(got) != 1 || !strings.Contains(got[0], "hit rate 1.000") {
		t.Fatalf("want exactly one summary line with the warm hit rate, got %q in:\n%s", got, out)
	}
	for _, want := range []string{"cluster: 1 nodes, topology ring", "node " + addr + ": 4000 ops", "health " + addr + ":"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestRunThreeNodes: the same path with a longer node list — and -writers
// and -stall, once single-node-only, ride along.
func TestRunThreeNodes(t *testing.T) {
	nodes := []string{startNode(t, 1), startNode(t, 2), startNode(t, 3)}
	code, out, errw := zkvbench("-nodes", strings.Join(nodes, ","), "-topology", "replicated", "-vnodes", "16",
		"-clients", "2", "-ops", "6000", "-keys", "1024", "-oracle", "-writers", "1", "-stall", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errw, out)
	}
	for _, want := range append([]string{"cluster: 3 nodes, topology replicated", "replication:", "contention: 1 writers"}, nodes...) {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if len(hitRateLine.FindAllString(out, -1)) != 1 {
		t.Errorf("summary line not unique:\n%s", out)
	}
}

func TestRunChaos(t *testing.T) {
	addr := startNode(t, 1)
	code, out, errw := zkvbench("-addr", addr, "-chaos", "latency:d=100us,p=0.05;reset:p=0.01", "-chaos-seed", "7",
		"-oracle", "-op-timeout", "1s", "-clients", "2", "-ops", "8000", "-keys", "512")
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errw, out)
	}
	if !strings.Contains(out, "chaos proxy "+addr+":") || !strings.Contains(out, "faults:") {
		t.Errorf("chaos run reported no proxy stats or no faults:\n%s", out)
	}
}

func TestRunUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-topology", "star"},
		{"-chaos", "jumbo:p=2"},
		{"-equiv", "canneal", "-policy", "mru"},
		{"-equiv", "no-such-workload"},
		{"-no-such-flag"},
	} {
		if code, _, errw := zkvbench(args...); code != 1 || errw == "" {
			t.Errorf("zkvbench %v: exit %d, stderr %q; want 1 and a message", args, code, errw)
		}
	}
}

func TestRunOracleCatchesLyingServer(t *testing.T) {
	code, out, errw := zkvbench("-addr", lyingNode(t), "-oracle", "-clients", "1", "-ops", "500", "-keys", "64", "-get-frac", "0.5")
	if code != 2 || !strings.Contains(errw, "wrong GETs") {
		t.Fatalf("exit %d, stderr %q; want 2 and the oracle verdict\n%s", code, errw, out)
	}
	if !strings.Contains(out, "oracle: 0 GET hits verified") {
		t.Errorf("garbage values verified:\n%s", out)
	}
}

// TestRunEquiv: -equiv W is -equiv-nodes 1; both shapes print MATCH. (The
// exit-2 divergence branch needs a store that disagrees with the simulator,
// which no flag can produce.)
func TestRunEquiv(t *testing.T) {
	geometry := []string{"-equiv", "canneal", "-ways", "4", "-rows", "256", "-levels", "2", "-accesses", "20000"}
	one, outOne, errw := zkvbench(geometry...)
	if one != 0 || !strings.Contains(outOne, "MATCH") {
		t.Fatalf("exit %d: %s\n%s", one, errw, outOne)
	}
	if _, outExplicit, _ := zkvbench(append(geometry, "-equiv-nodes", "1")...); outExplicit != outOne {
		t.Errorf("-equiv-nodes 1 differs from the default:\n%s\nvs\n%s", outExplicit, outOne)
	}
	code, out, errw := zkvbench(append(geometry, "-equiv-nodes", "3", "-vnodes", "16")...)
	if code != 0 || !strings.Contains(out, "MATCH") || !strings.Contains(out, "node node2:") {
		t.Fatalf("exit %d: %s\n%s", code, errw, out)
	}
}
