package main

import (
	"context"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"zcache/internal/zkvproto"
)

// freeAddr grabs an ephemeral port and releases it for the server to bind.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func dialRetry(t *testing.T, addr string) *zkvproto.Client {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		cl, err := zkvproto.Dial(addr)
		if err == nil {
			return cl
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up on %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunServesAndDrains drives the full zcached lifecycle: start, serve a
// client, cancel the context (the signal path), and confirm run returns nil
// — the exit-0 contract for SIGINT.
func TestRunServesAndDrains(t *testing.T) {
	addr := freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", addr, "-shards", "2", "-rows", "256",
			"-drain", "1s", "-seed", "9",
		}, os.Stderr)
	}()

	cl := dialRetry(t, addr)
	defer cl.Close()
	if err := cl.Set([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get([]byte("k"), nil)
	if err != nil || !ok || string(v) != "v" {
		t.Fatalf("Get = %q, %t, %v", v, ok, err)
	}

	cancel() // stands in for SIGINT via signal.NotifyContext
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after cancellation")
	}
}

func TestRunMetricsEndpoint(t *testing.T) {
	addr, maddr := freeAddr(t), freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", addr, "-shards", "1", "-rows", "64",
			"-metrics", maddr, "-drain", "500ms",
		}, os.Stderr)
	}()
	cl := dialRetry(t, addr)
	defer cl.Close()
	if err := cl.Set([]byte("m"), []byte("1")); err != nil {
		t.Fatal(err)
	}

	// Plain-text GET of /metrics without net/http client ceremony.
	deadline := time.Now().Add(5 * time.Second)
	var body string
	for {
		conn, err := net.Dial("tcp", maddr)
		if err == nil {
			conn.Write([]byte("GET /metrics HTTP/1.0\r\n\r\n"))
			buf := make([]byte, 1<<16)
			n, _ := conn.Read(buf)
			for n < len(buf) {
				m, err := conn.Read(buf[n:])
				n += m
				if err != nil {
					break
				}
			}
			conn.Close()
			body = string(buf[:n])
			if strings.Contains(body, "zkv_sets_total") {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics endpoint never answered; last body:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(body, "zkv_sets_total 1") {
		t.Fatalf("metrics missing set counter:\n%s", body)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// httpGet does a minimal HTTP/1.0 GET and returns the raw response text.
func httpGet(addr, path string) (string, error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("GET " + path + " HTTP/1.0\r\n\r\n")); err != nil {
		return "", err
	}
	buf := make([]byte, 1<<16)
	n := 0
	for n < len(buf) {
		m, err := conn.Read(buf[n:])
		n += m
		if err != nil {
			break
		}
	}
	return string(buf[:n]), nil
}

// TestRunDrainsWithStalledClient is the satellite drain guarantee end to
// end: a connected client that never sends a byte must not hold the
// process past the drain window. While the drain runs, /ready flips from
// 200 ok to 503 draining; run still returns nil (exit 0), and the force
// close is visible in the drain counter.
func TestRunDrainsWithStalledClient(t *testing.T) {
	addr, maddr := freeAddr(t), freeAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() {
		runErr <- run(ctx, []string{
			"-addr", addr, "-shards", "1", "-rows", "64",
			"-metrics", maddr, "-drain", "600ms",
		}, os.Stderr)
	}()

	// A healthy client proves the server is up; the stalled one then just
	// sits there, connected and silent, for the whole shutdown.
	cl := dialRetry(t, addr)
	defer cl.Close()
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	stalled, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()

	// Ready while serving.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, err := httpGet(maddr, "/ready")
		if err == nil && strings.Contains(body, "200") && strings.Contains(body, "ok") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/ready never answered ok: %v %q", err, body)
		}
		time.Sleep(10 * time.Millisecond)
	}

	start := time.Now()
	cancel()

	// Draining: /ready must flip to 503 before the metrics server goes
	// away. The drain window (600ms, held open by the stalled client)
	// is the observation window.
	saw503 := false
	for time.Since(start) < 550*time.Millisecond {
		body, err := httpGet(maddr, "/ready")
		if err == nil && strings.Contains(body, "503") && strings.Contains(body, "draining") {
			saw503 = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw503 {
		t.Error("/ready never reported draining during the drain window")
	}

	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("run returned %v with a stalled client, want nil (exit 0)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return: stalled client held the drain")
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("drain took %v, want bounded by the 600ms window plus slack", d)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if err := run(context.Background(), []string{"-policy", "mru"}, os.Stderr); err == nil {
		t.Fatal("bad policy accepted")
	}
	if err := run(context.Background(), []string{"-shards", "3"}, os.Stderr); err == nil {
		t.Fatal("bad shard count accepted")
	}
	if err := run(context.Background(), []string{"-levels", "20"}, os.Stderr); err == nil {
		t.Fatal("a walk of R(4, 20) candidates accepted")
	}
}
