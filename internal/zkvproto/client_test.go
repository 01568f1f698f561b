package zkvproto

import (
	"bufio"
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
)

// fakeServer runs handler once per accepted connection on an ephemeral
// port. Handlers speak raw zkvproto frames, which lets each test script
// exactly the failure it needs.
func fakeServer(t *testing.T, handler func(conn net.Conn)) string {
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
			go handler(conn)
		}
	}()
	return ln.Addr().String()
}

// serveStatuses reads one request at a time and answers from the script;
// when the script runs out it keeps answering the last status.
func serveStatuses(statuses ...byte) func(net.Conn) {
	return func(conn net.Conn) {
		defer conn.Close()
		br := bufio.NewReader(conn)
		bw := bufio.NewWriter(conn)
		var req Request
		var resp Response
		for i := 0; ; i++ {
			if err := req.ReadFrom(br); err != nil {
				return
			}
			s := statuses[len(statuses)-1]
			if i < len(statuses) {
				s = statuses[i]
			}
			resp.Status, resp.Val = s, nil
			if err := resp.WriteTo(bw); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// TestClientBrokenConnFailsFast: after a transport failure the client sends
// nothing and dials nothing — every one-shot op fails fast with a reset —
// until the caller reconnects it.
func TestClientBrokenConnFailsFast(t *testing.T) {
	var accepted atomic.Int64
	addr := fakeServer(t, func(conn net.Conn) {
		if accepted.Add(1) == 1 {
			var req Request
			req.ReadFrom(bufio.NewReader(conn)) // consume the GET, then die without answering
			conn.Close()
			return
		}
		serveStatuses(StatusNotFound)(conn)
	})
	cl, err := DialOptions(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, _, err := cl.Get([]byte("k"), nil); Classify(err) != ClassReset {
		t.Fatalf("GET on a dying connection: %v, want a reset", err)
	}
	for _, op := range []func() error{
		func() error { _, _, err := cl.Get([]byte("k"), nil); return err },
		func() error { return cl.Set([]byte("k"), []byte("v")) },
		cl.Ping,
	} {
		if err := op(); Classify(err) != ClassReset || !errors.Is(err, errBroken) {
			t.Fatalf("op on a broken connection: %v, want a fail-fast reset", err)
		}
	}
	if err := cl.Reconnect(); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.Get([]byte("k"), nil); err != nil || ok {
		t.Fatalf("GET after Reconnect: ok=%v err=%v, want a miss", ok, err)
	}
	// The reconnected connection was served, so had any fail-fast op dialed,
	// its connection would have been accepted before it.
	if n := accepted.Load(); n != 2 {
		t.Fatalf("server accepted %d connections, want 2 (the first and Reconnect's)", n)
	}
}

// TestClientSetAmbiguousOnMidOpDeath: a mutation whose connection dies
// after the request may or may not have executed; the client must say so
// rather than silently resending.
func TestClientSetAmbiguousOnMidOpDeath(t *testing.T) {
	var served atomic.Bool
	addr := fakeServer(t, func(conn net.Conn) {
		if served.CompareAndSwap(false, true) {
			br := bufio.NewReader(conn)
			var req Request
			req.ReadFrom(br) // consume the SET, then die without answering
			conn.Close()
			return
		}
		serveStatuses(StatusOK)(conn)
	})
	cl, err := DialOptions(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Set([]byte("k"), []byte("v"))
	if err == nil {
		t.Fatal("Set succeeded on a dead connection")
	}
	if !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("Set error %v, want ErrAmbiguous", err)
	}
	if got := Classify(err); got != ClassAmbiguous {
		t.Fatalf("classified %v, want ambiguous", got)
	}
	// The caller heals the connection for the next operation.
	if err := cl.Reconnect(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Ping(); err != nil {
		t.Fatalf("Ping after ambiguous SET: %v", err)
	}
}

// TestClientOpTimeout: a silent server converts into a bounded, classified
// timeout, not a hang.
func TestClientOpTimeout(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	addr := fakeServer(t, func(conn net.Conn) {
		defer conn.Close()
		<-block // accept, then never answer
	})
	cl, err := DialOptions(addr, Options{OpTimeout: 150 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	err = cl.Ping()
	if err == nil {
		t.Fatal("Ping succeeded against a silent server")
	}
	if got := Classify(err); got != ClassTimeout {
		t.Fatalf("classified %v (%v), want timeout", got, err)
	}
	var oe *OpError
	if !errors.As(err, &oe) || !oe.Timeout() {
		t.Fatalf("error %v does not implement net.Error timeout", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("timeout took %v, want ~150ms", d)
	}
}

// TestClassify pins the error taxonomy: each class is the answer to "is a
// retry safe, and why/why not".
func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Class
	}{
		{nil, ClassNone},
		{ErrBusy, ClassBusy},
		{ErrAmbiguous, ClassAmbiguous},
		{os.ErrDeadlineExceeded, ClassTimeout},
		{ErrBadOp, ClassProtocol},
		{ErrBadFrame, ClassProtocol},
		{ErrFrameTooLarge, ClassProtocol},
		{io.EOF, ClassReset},
		{io.ErrUnexpectedEOF, ClassReset},
		{net.ErrClosed, ClassReset},
		{syscall.ECONNRESET, ClassReset},
		{syscall.EPIPE, ClassReset},
		{&net.OpError{Op: "read", Err: syscall.ECONNRESET}, ClassReset},
		{errors.New("mystery"), ClassUnknown},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.err, got, tc.want)
		}
	}
	// Class strings are stable report labels.
	for c, want := range map[Class]string{
		ClassNone: "none", ClassTimeout: "timeout", ClassReset: "reset",
		ClassBusy: "busy", ClassProtocol: "protocol",
		ClassAmbiguous: "ambiguous", ClassUnknown: "unknown",
	} {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}
