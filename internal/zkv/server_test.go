package zkv

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"zcache/internal/zkvproto"
)

// testStore opens the small store the server tests run against.
func testStore(t *testing.T) *Store {
	t.Helper()
	store, err := Open(Config{Shards: 2, Ways: 4, Rows: 256, Levels: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// startServer runs a server on an ephemeral port and returns it with its
// address and the Serve error channel.
func startServer(t *testing.T, scfg ServerConfig) (*Server, string, chan error) {
	t.Helper()
	store := testStore(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, scfg)
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	return srv, ln.Addr().String(), errc
}

func shutdownServer(t *testing.T, srv *Server, errc chan error) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
}

func TestServerBasicOps(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := cl.Set([]byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := cl.Get([]byte("alpha"), nil)
	if err != nil || !ok || string(v) != "one" {
		t.Fatalf("Get = %q, %t, %v", v, ok, err)
	}
	if _, ok, err := cl.Get([]byte("beta"), nil); err != nil || ok {
		t.Fatalf("missing key: ok=%t err=%v", ok, err)
	}
	if ok, err := cl.Del([]byte("alpha")); err != nil || !ok {
		t.Fatalf("Del = %t, %v", ok, err)
	}
	if ok, err := cl.Del([]byte("alpha")); err != nil || ok {
		t.Fatalf("second Del = %t, %v", ok, err)
	}
	stats, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"zkv_gets_total 2", "zkv_sets_total 1", "zkv_dels_total 2",
		"zkv_requests_total", "zkv_walk_depth_bucket",
	} {
		if !strings.Contains(stats, want) {
			t.Errorf("metrics missing %q:\n%s", want, stats)
		}
	}
}

func TestServerPipelining(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	const n = 500
	for i := 0; i < n; i++ {
		if err := cl.QueueSet([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if resp.Status != zkvproto.StatusOK {
			t.Fatalf("reply %d: status %d %q", i, resp.Status, resp.Val)
		}
	}
	for i := 0; i < n; i++ {
		if err := cl.QueueGet([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("get reply %d: %v", i, err)
		}
		if resp.Status == zkvproto.StatusOK {
			hits++
			if want := fmt.Sprintf("v%03d", i); string(resp.Val) != want {
				t.Fatalf("get %d = %q, want %q", i, resp.Val, want)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no pipelined GET hits")
	}
}

func TestServerRejectsOversizedValue(t *testing.T) {
	store, err := Open(Config{Shards: 1, Ways: 4, Rows: 64, MaxValBytes: 128, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(store, ServerConfig{})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Set([]byte("k"), make([]byte, 4096))
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized set: %v", err)
	}
	// The connection survives the rejected request.
	if err := cl.Set([]byte("k"), []byte("small")); err != nil {
		t.Fatalf("follow-up set: %v", err)
	}
}

func TestServerGracefulDrain(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{DrainTimeout: 2 * time.Second})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	cl := zkvproto.NewClient(conn)
	// A connection Serve has not accepted yet when Shutdown begins is
	// closed unserved; prove the handler is running first.
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	// Queue a pipelined burst and flush it, then immediately shut down.
	// The server must answer every request before the connection dies.
	const n = 200
	for i := 0; i < n; i++ {
		if err := cl.QueueSet([]byte(fmt.Sprintf("drain%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}

	sdErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sdErr <- srv.Shutdown(ctx)
	}()

	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("drained reply %d: %v", i, err)
		}
		if resp.Status != zkvproto.StatusOK {
			t.Fatalf("drained reply %d: status %d", i, resp.Status)
		}
	}
	if err := <-sdErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	// New connections must be refused after shutdown.
	if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServerShedsWhenPoolFull pins the shed contract: an over-limit
// connection gets one StatusBusy frame and an immediate close — it is
// never silently parked — and the shed is counted. Once a slot frees, new
// connections serve normally again.
func TestServerShedsWhenPoolFull(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{MaxConns: 2, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	c1, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}

	// Pool full: the third client must fail fast with a busy-class error,
	// not hang.
	c3, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c3.SetDeadline(time.Now().Add(3 * time.Second))
	err = c3.Ping()
	if zkvproto.Classify(err) != zkvproto.ClassBusy {
		t.Fatalf("over-limit ping: err=%v class=%v, want busy", err, zkvproto.Classify(err))
	}
	c3.Close()
	if got := srv.ShedStats().ShedConns; got == 0 {
		t.Fatal("shed connection not counted")
	}

	// Free a slot; a new connection must serve normally.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c4, err := zkvproto.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		c4.SetDeadline(time.Now().Add(time.Second))
		err = c4.Ping()
		c4.Close()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never freed: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	c2.Close()
}

// TestServerShedsDeepPipeline pins the pipeline-depth contract: requests
// beyond MaxPipeline in one burst are answered StatusBusy without touching
// the store, and the sheds are counted.
func TestServerShedsDeepPipeline(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{MaxPipeline: 4, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// One 256-request burst in a single flush (it arrives well inside one
	// TCP segment, so the server sees it as one pipelined burst).
	const n = 256
	for i := 0; i < n; i++ {
		if err := cl.QueueSet([]byte(fmt.Sprintf("deep%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	ok, busy := 0, 0
	for i := 0; i < n; i++ {
		resp, err := cl.ReadReply()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		switch resp.Status {
		case zkvproto.StatusOK:
			ok++
		case zkvproto.StatusBusy:
			busy++
		default:
			t.Fatalf("reply %d: status %d %q", i, resp.Status, resp.Val)
		}
	}
	if ok == 0 || busy == 0 {
		t.Fatalf("burst of %d with MaxPipeline=4: ok=%d busy=%d, want both nonzero", n, ok, busy)
	}
	if got := srv.ShedStats().ShedRequests; got != uint64(busy) {
		t.Fatalf("shed counter %d != busy replies %d", got, busy)
	}
	// Shed requests were never executed: only the OK'd keys are resident.
	if res := srv.store.Len(); res != ok {
		t.Fatalf("%d keys resident, want %d (shed SETs must not execute)", res, ok)
	}
	// A fresh small burst on the same connection serves normally again.
	if err := cl.Set([]byte("after"), []byte("v")); err != nil {
		t.Fatalf("post-shed set: %v", err)
	}
}

// TestServerIdleTimeout: a connection that never sends a request is
// force-closed and counted.
func TestServerIdleTimeout(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{IdleTimeout: 100 * time.Millisecond, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not closed")
	}
	if got := srv.ShedStats().IdleCloses; got == 0 {
		t.Fatal("idle close not counted")
	}
}

// TestServerSlowLorisClosed: a reader trickling a partial frame is
// force-closed by the read-progress deadline, and the pool slot frees.
func TestServerSlowLorisClosed(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{ReadTimeout: 100 * time.Millisecond, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two header bytes of a SET frame, then silence.
	if _, err := conn.Write([]byte{zkvproto.OpSet, 0x00}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("slow-loris connection was not closed")
	}
	if got := srv.ShedStats().ReadCloses; got == 0 {
		t.Fatal("slow-loris close not counted")
	}
}

// TestServerTrickleSlowLorisClosed: a peer that keeps a frame open by
// sending one byte every ReadTimeout/3 is still cut off about ReadTimeout
// after its first byte. A frame deadline re-armed by every read would keep
// this connection for as long as the bytes kept coming.
func TestServerTrickleSlowLorisClosed(t *testing.T) {
	const readTimeout = 300 * time.Millisecond
	srv, addr, errc := startServer(t, ServerConfig{ReadTimeout: readTimeout, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A SET whose key is 65535 bytes long: at this pace it never completes.
	next := []byte{zkvproto.OpSet, 0xff, 0xff, 0, 0, 0, 0}
	start := time.Now()
	for {
		if time.Since(start) > 5*time.Second {
			t.Fatal("trickling connection was not closed")
		}
		if _, err := conn.Write(next[:1]); err != nil {
			break
		}
		if next = next[1:]; len(next) == 0 {
			next = []byte{'k'}
		}
		// Wait out the gap to the next byte in a read, which is also how
		// the close shows up.
		conn.SetReadDeadline(time.Now().Add(readTimeout / 3))
		n, err := conn.Read(make([]byte, 1))
		if n > 0 {
			t.Fatal("server answered an unfinished frame")
		}
		if !isTimeout(err) {
			break
		}
	}
	if d := time.Since(start); d > 2*readTimeout {
		t.Fatalf("closed %v after the first byte, want within %v", d, 2*readTimeout)
	}
	if got := srv.ShedStats(); got.ReadCloses != 1 || got.IdleCloses != 0 {
		t.Fatalf("trickle close miscounted: %+v", got)
	}
}

// TestServerFrameOutlivesIdleTimeout: with ReadTimeout disabled nothing
// bounds a frame, so the idle deadline under which its first byte arrived
// must not stay armed and cut it off.
func TestServerFrameOutlivesIdleTimeout(t *testing.T) {
	const idle = 100 * time.Millisecond
	srv, addr, errc := startServer(t, ServerConfig{IdleTimeout: idle, ReadTimeout: -1, DrainTimeout: time.Second})
	defer shutdownServer(t, srv, errc)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	frame := encodeRequests(t, zkvproto.Request{Op: zkvproto.OpSet, Key: []byte("k"), Val: []byte("v")})
	if _, err := conn.Write(frame[:2]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(3 * idle)
	if _, err := conn.Write(frame[2:]); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var resp zkvproto.Response
	if err := resp.ReadFrom(bufio.NewReader(conn)); err != nil || resp.Status != zkvproto.StatusOK {
		t.Fatalf("frame spanning %v with ReadTimeout disabled: status %d, err %v", 3*idle, resp.Status, err)
	}
	if got := srv.ShedStats(); got.ReadCloses != 0 || got.IdleCloses != 0 {
		t.Fatalf("deadline closes counted on a served connection: %+v", got)
	}
}

// encodeRequests returns the wire bytes of reqs, back to back.
func encodeRequests(t *testing.T, reqs ...zkvproto.Request) []byte {
	t.Helper()
	var wire bytes.Buffer
	bw := bufio.NewWriter(&wire)
	for i := range reqs {
		if err := reqs[i].WriteTo(bw); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// burstOf returns n SET requests on distinct keys.
func burstOf(n int) []zkvproto.Request {
	reqs := make([]zkvproto.Request, n)
	for i := range reqs {
		reqs[i] = zkvproto.Request{Op: zkvproto.OpSet, Key: []byte(fmt.Sprintf("burst%02d", i)), Val: []byte("v")}
	}
	return reqs
}

// hookConn counts the deadlines a server arms on its side of a connection,
// the reads that returned data and the writes, and reports the size of every
// read that returned data.
type hookConn struct {
	net.Conn
	readArms, writeArms atomic.Int32
	reads, writes       atomic.Int32
	afterRead           func(n int)      // optional
	beforeReadArm       func(call int32) // optional; call counts from 1
}

func (c *hookConn) SetReadDeadline(t time.Time) error {
	call := c.readArms.Add(1)
	if c.beforeReadArm != nil {
		c.beforeReadArm(call)
	}
	return c.Conn.SetReadDeadline(t)
}

func (c *hookConn) SetWriteDeadline(t time.Time) error {
	c.writeArms.Add(1)
	return c.Conn.SetWriteDeadline(t)
}

func (c *hookConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
		if c.afterRead != nil {
			c.afterRead(n)
		}
	}
	return n, err
}

func (c *hookConn) Write(p []byte) (int, error) {
	c.writes.Add(1) // before the write: the peer may see its bytes first
	return c.Conn.Write(p)
}

// hookListener hands Serve every accepted connection through wrap.
type hookListener struct {
	net.Listener
	wrap func(net.Conn) net.Conn
}

func (l hookListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.wrap(conn), nil
}

// TestServerArmsDeadlinesPerSyscall: a 16-frame burst that arrives in one
// read and is answered in one write costs the timers of those two blocking
// points — the idle wait before it, the write, the idle wait after it — and
// nothing per request.
func TestServerArmsDeadlinesPerSyscall(t *testing.T) {
	srv := NewServer(testStore(t), ServerConfig{})
	client, server := net.Pipe()
	defer client.Close()
	hc := &hookConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		srv.serveConn(hc)
	}()

	const n = 16
	// A pipe hands a Write to the reader whole when the reader's buffer has
	// room for it, and the server's has: one read carries the burst.
	client.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := client.Write(encodeRequests(t, burstOf(n)...)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(client)
	var resp zkvproto.Response
	for i := 0; i < n; i++ {
		if err := resp.ReadFrom(br); err != nil || resp.Status != zkvproto.StatusOK {
			t.Fatalf("reply %d: status %d, err %v", i, resp.Status, err)
		}
	}
	client.Close()
	<-done
	if r, w := hc.readArms.Load(), hc.writeArms.Load(); r < 1 || r > 2 || w != 1 {
		t.Fatalf("%d-frame burst armed %d read and %d write deadlines, want 1-2 and 1", n, r, w)
	}
}

// TestServerBuffersFollowBursts: 16-deep bursts of 1 KiB SETs overflow the
// server's starting read buffer and bursts of 1 KiB GETs its write buffer.
// Each overflow is paid once: from the second burst of each kind on, a burst
// reaches the server in one read and leaves it in one write, as it does with
// 64 KiB buffers, and every reply is whole and in order.
func TestServerBuffersFollowBursts(t *testing.T) {
	srv := NewServer(testStore(t), ServerConfig{})
	client, server := net.Pipe()
	defer client.Close()
	hc := &hookConn{Conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer server.Close()
		srv.serveConn(hc)
	}()
	client.SetDeadline(time.Now().Add(10 * time.Second))
	replies := bufio.NewReader(client)

	const n = 16
	val := func(round, i int) []byte {
		return bytes.Repeat([]byte{byte(round*n + i)}, 1024)
	}
	for round := 0; round < 4; round++ {
		sets, gets := make([]zkvproto.Request, n), make([]zkvproto.Request, n)
		for i := range sets {
			key := []byte(fmt.Sprintf("grow%02d", i))
			sets[i] = zkvproto.Request{Op: zkvproto.OpSet, Key: key, Val: val(round, i)}
			gets[i] = zkvproto.Request{Op: zkvproto.OpGet, Key: key}
		}
		for _, burst := range [][]zkvproto.Request{sets, gets} {
			reads, writes := hc.reads.Load(), hc.writes.Load()
			// A pipe write completes only as the server reads it, and the
			// server's replies only as they are read here: send and read
			// concurrently.
			wire := encodeRequests(t, burst...)
			sent := make(chan error, 1)
			go func() {
				_, err := client.Write(wire)
				sent <- err
			}()
			var resp zkvproto.Response
			for i := range burst {
				want := []byte(nil)
				if burst[i].Op == zkvproto.OpGet {
					want = val(round, i)
				}
				if err := resp.ReadFrom(replies); err != nil || resp.Status != zkvproto.StatusOK || !bytes.Equal(resp.Val, want) {
					t.Fatalf("round %d op %d reply %d: status %d, %d value bytes, err %v", round, burst[i].Op, i, resp.Status, len(resp.Val), err)
				}
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			reads, writes = hc.reads.Load()-reads, hc.writes.Load()-writes
			t.Logf("round %d op %d: %d reads, %d writes", round, burst[0].Op, reads, writes)
			if round > 0 && (reads != 1 || writes != 1) {
				t.Errorf("round %d: a 16-deep burst of op %d took %d reads and %d writes, want 1 and 1", round, burst[0].Op, reads, writes)
			}
		}
	}
	client.Close()
	<-done
}

// TestBytesPerConnection is the per-connection footprint gate: the live heap
// one idle client/server pair holds once a PING has crossed it, over loopback
// TCP. It measures 17.7-18.3 KB: the four 4 KiB buffers both ends start
// with, the two sockets, the client and the server's handler state. The
// bound is that plus 2 KB, so a buffer that starts at 8 KiB fails it, as do
// the fixed 64 KiB buffers every end held before (264 KB a pair).
func TestBytesPerConnection(t *testing.T) {
	const pairs, bound = 16, 20 << 10
	srv, addr, errc := startServer(t, ServerConfig{MaxConns: pairs})
	heap0 := liveHeap()
	clients := make([]*zkvproto.Client, pairs)
	for i := range clients {
		c, err := zkvproto.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	heap1 := liveHeap()
	runtime.KeepAlive(clients)
	for _, c := range clients {
		c.Close()
	}
	shutdownServer(t, srv, errc)
	per := (float64(heap1) - float64(heap0)) / pairs
	t.Logf("%.0f heap bytes per client/server pair", per)
	if per > bound {
		t.Errorf("%.0f heap bytes per idle client/server pair, want at most %d", per, bound)
	}
}

// TestServerShutdownAnswersBufferedBurst: Shutdown that begins while a whole
// burst sits decoded-but-unanswered in the handler's read buffer still gets
// every frame executed and answered, and the connection — silent afterwards
// — is closed at the drain deadline, not later.
func TestServerShutdownAnswersBufferedBurst(t *testing.T) {
	store := testStore(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	burst := encodeRequests(t, burstOf(n)...)
	// The handler's read that completes the burst parks until released, so
	// Shutdown provably starts with all n frames buffered.
	buffered, release := make(chan struct{}), make(chan struct{})
	arrived := 0
	wrap := func(conn net.Conn) net.Conn {
		return &hookConn{Conn: conn, afterRead: func(n int) {
			if arrived += n; arrived == len(burst) {
				close(buffered)
				<-release
			}
		}}
	}
	const drain = 300 * time.Millisecond
	srv := NewServer(store, ServerConfig{DrainTimeout: drain})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(hookListener{ln, wrap}) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	<-buffered
	start := time.Now()
	sdErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		sdErr <- srv.Shutdown(ctx)
	}()
	for !srv.inShutdown.Load() {
		time.Sleep(time.Millisecond)
	}
	close(release)

	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	br := bufio.NewReader(conn)
	var resp zkvproto.Response
	for i := 0; i < n; i++ {
		if err := resp.ReadFrom(br); err != nil || resp.Status != zkvproto.StatusOK {
			t.Fatalf("buffered frame %d: status %d, err %v", i, resp.Status, err)
		}
	}
	if got := store.Len(); got != n {
		t.Fatalf("%d keys resident, want %d", got, n)
	}
	if err := <-sdErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain took %v, want ~DrainTimeout (%v)", d, drain)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if got := srv.ShedStats().DrainCloses; got != 1 {
		t.Fatalf("DrainCloses = %d, want 1", got)
	}
}

// TestServerDrainOutlastsStaleIdleArm: a handler that computed its idle
// deadline before Shutdown began and arms it after cannot hold the drain
// open. The hook parks the idle re-arm that follows a Ping until Shutdown has
// begun (and, should Shutdown arm a read deadline of its own, until that one
// is in), so the five-minute idle deadline is the last one armed. Shutdown
// must still return nil about DrainTimeout later, the connection counted as
// one drain close.
func TestServerDrainOutlastsStaleIdleArm(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	parked, release := make(chan struct{}), make(chan struct{})
	laterArm := make(chan struct{}, 1)
	wrap := func(conn net.Conn) net.Conn {
		return &hookConn{Conn: conn, beforeReadArm: func(call int32) {
			switch {
			case call == 2: // the idle re-arm after the Ping's reply
				close(parked)
				<-release
			case call > 2:
				select {
				case laterArm <- struct{}{}:
				default:
				}
			}
		}}
	}
	const drain = 300 * time.Millisecond
	srv := NewServer(testStore(t), ServerConfig{DrainTimeout: drain})
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(hookListener{ln, wrap}) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := zkvproto.NewClient(conn).Ping(); err != nil {
		t.Fatal(err)
	}
	<-parked
	start := time.Now()
	sdErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		sdErr <- srv.Shutdown(ctx)
	}()
	for !srv.inShutdown.Load() {
		time.Sleep(time.Millisecond)
	}
	select {
	case <-laterArm:
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	if err := <-sdErr; err != nil {
		t.Fatalf("shutdown after a stale idle arm: %v", err)
	}
	if d := time.Since(start); d > 1500*time.Millisecond {
		t.Fatalf("drain took %v, want ~DrainTimeout (%v)", d, drain)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if got := srv.ShedStats().DrainCloses; got != 1 {
		t.Fatalf("DrainCloses = %d, want 1", got)
	}
}

// TestServerDrainWithStalledClient is the drain half of the robustness
// contract: Shutdown must complete within the drain window even with a
// connected-but-silent client attached, force-closing (and counting) it.
func TestServerDrainWithStalledClient(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{DrainTimeout: 300 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Prove the connection is live (and its handler running), then stall.
	cl := zkvproto.NewClient(conn)
	if err := cl.Ping(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with stalled client: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("drain took %v, want ~DrainTimeout (300ms)", d)
	}
	if err := <-errc; !errors.Is(err, ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	if got := srv.ShedStats().DrainCloses; got == 0 {
		t.Fatal("stalled client's force-close not counted")
	}
}

// TestServerRobustnessMetrics: the shed/deadline/readiness counters are on
// the metrics text.
func TestServerRobustnessMetrics(t *testing.T) {
	srv, _, errc := startServer(t, ServerConfig{})
	// Serve runs in a goroutine; wait for it to mark itself started.
	for start := time.Now(); !srv.Ready(); {
		if time.Since(start) > 2*time.Second {
			t.Fatal("server never became ready")
		}
		time.Sleep(time.Millisecond)
	}
	text := string(srv.MetricsText())
	for _, want := range []string{
		"zkv_ready 1", "zkv_shed_conns_total 0", "zkv_shed_requests_total 0",
		"zkv_deadline_idle_closes_total 0", "zkv_deadline_read_closes_total 0",
		"zkv_deadline_write_closes_total 0", "zkv_drain_force_closes_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !srv.Ready() {
		t.Error("server not ready while serving")
	}
	shutdownServer(t, srv, errc)
	if srv.Ready() {
		t.Error("server still ready after shutdown")
	}
	if !strings.Contains(string(srv.MetricsText()), "zkv_ready 0") {
		t.Error("zkv_ready did not drop to 0 after shutdown")
	}
}
