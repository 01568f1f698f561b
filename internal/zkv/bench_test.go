package zkv

import (
	"context"
	"encoding/binary"
	"net"
	"testing"

	"zcache/internal/zkvproto"
)

// benchStore builds a store prefilled to roughly half capacity so Get hits
// and Set exercises both overwrite and install paths.
func benchStore(b testing.TB) (*Store, int) { return benchStoreKeyLen(b, 8) }

// benchStoreKeyLen is benchStore with keys of klen ≥ 8 bytes: the counter in
// the last eight, zeros before it.
func benchStoreKeyLen(b testing.TB, klen int) (*Store, int) { return benchStoreSized(b, klen, 64) }

// benchStoreSized is benchStoreKeyLen with vlen-byte values.
func benchStoreSized(b testing.TB, klen, vlen int) (*Store, int) {
	b.Helper()
	s, err := Open(Config{Shards: 4, Ways: 4, Rows: 1024, Levels: 2, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	n := s.Capacity() / 2
	key := make([]byte, klen)
	val := make([]byte, vlen)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key[klen-8:], uint64(i))
		if err := s.Set(key, val); err != nil {
			b.Fatal(err)
		}
	}
	return s, n
}

func benchGet(b *testing.B, klen int) {
	s, n := benchStoreKeyLen(b, klen)
	key := make([]byte, klen)
	dst := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key[klen-8:], uint64(i%n))
		dst, _ = s.Get(key, dst[:0])
	}
	_ = dst
}

func BenchmarkZKVGet(b *testing.B) { benchGet(b, 8) }

// BenchmarkZKVGetKey16 is BenchmarkZKVGet with a two-word key: the probe has
// one path for every key length, so this stays within a word compare of it.
func BenchmarkZKVGetKey16(b *testing.B) { benchGet(b, 16) }

func BenchmarkZKVSet(b *testing.B) {
	s, n := benchStore(b)
	var key [8]byte
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle over 2x the prefill so installs, overwrites, and
		// evictions all stay on the hot path.
		binary.BigEndian.PutUint64(key[:], uint64(i%(2*n)))
		if err := s.Set(key[:], val); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZKVGetParallel(b *testing.B) {
	s, n := benchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var key [8]byte
		dst := make([]byte, 0, 64)
		i := 0
		for pb.Next() {
			binary.BigEndian.PutUint64(key[:], uint64(i%n))
			dst, _ = s.Get(key[:], dst[:0])
			i++
		}
	})
}

// pipelinedGetDepth is the burst size of the serving-loop instruments.
const pipelinedGetDepth = 16

// servePipelinedGets boots a server over a prefilled store of 64-byte values
// on loopback TCP and returns burst, which sends pipelinedGetDepth GETs
// starting at key first in one flush and reads every reply, and stop. Client
// and server run in this process, so an allocation count taken around burst
// sees both sides. One burst has already run, sizing both sides' reusable
// buffers.
func servePipelinedGets(tb testing.TB) (burst func(first int), stop func()) {
	return servePipelinedGetValues(tb, 64)
}

// servePipelinedGetValues is servePipelinedGets with vlen-byte values.
func servePipelinedGetValues(tb testing.TB, vlen int) (burst func(first int), stop func()) {
	tb.Helper()
	s, n := benchStoreSized(tb, 8, vlen)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	srv := NewServer(s, ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := zkvproto.Dial(ln.Addr().String())
	if err != nil {
		tb.Fatal(err)
	}
	var key [8]byte
	burst = func(first int) {
		for i := first; i < first+pipelinedGetDepth; i++ {
			binary.BigEndian.PutUint64(key[:], uint64(i%n))
			if err := cl.QueueGet(key[:]); err != nil {
				tb.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < pipelinedGetDepth; i++ {
			if resp, err := cl.ReadReply(); err != nil || resp.Status != zkvproto.StatusOK || len(resp.Val) != vlen {
				tb.Fatalf("reply: %v, %+v", err, resp)
			}
		}
	}
	stop = func() {
		cl.Close()
		if err := srv.Shutdown(context.Background()); err != nil {
			tb.Fatal(err)
		}
		<-served
	}
	burst(0)
	return burst, stop
}

// BenchmarkServerPipelinedGet is the serving path whole: one client sends
// 16-deep GET bursts over loopback TCP and waits for the replies, so an
// iteration is one request's share of client codec, two syscalls each way,
// serveConn and Store.Get. TestServerPipelinedGetAllocs pins its 0 allocs.
func BenchmarkServerPipelinedGet(b *testing.B) {
	burst, stop := servePipelinedGets(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += pipelinedGetDepth {
		burst(i)
	}
	b.StopTimer()
	stop()
}

// BenchmarkServerPipelinedGetValues is BenchmarkServerPipelinedGet at three
// value sizes. A 16-deep burst of 64 B replies (1.1 KiB) fits the 4 KiB
// buffers a connection starts with; one of 1 KiB replies (16.1 KiB) grows
// both reply-side buffers to 32 KiB, and one of 4 KiB replies (64.1 KiB) to
// the 64 KiB cap, during the set-up burst, so the timed bursts leave in as
// few writes as with fixed 64 KiB buffers.
func BenchmarkServerPipelinedGetValues(b *testing.B) {
	for _, c := range []struct {
		name string
		vlen int
	}{{"64B", 64}, {"1KiB", 1 << 10}, {"4KiB", 4 << 10}} {
		b.Run(c.name, func(b *testing.B) {
			burst, stop := servePipelinedGetValues(b, c.vlen)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += pipelinedGetDepth {
				burst(i)
			}
			b.StopTimer()
			stop()
		})
	}
}

// TestServerPipelinedGetAllocs pins the serving loop at zero allocations per
// burst on both sides of the socket once the buffers are warm: client codec,
// serveConn and Store.Get. A per-request cost creeping back into the loop (a
// timer, a reply buffer) shows here as a whole number of objects per burst.
func TestServerPipelinedGetAllocs(t *testing.T) {
	burst, stop := servePipelinedGets(t)
	defer stop()
	for i := 0; i < 64; i++ {
		burst(i * pipelinedGetDepth)
	}
	next := 0
	if n := testing.AllocsPerRun(200, func() {
		burst(next)
		next += pipelinedGetDepth
	}); n != 0 {
		t.Fatalf("a %d-deep pipelined GET burst allocates %.0f objects across client and server, want 0", pipelinedGetDepth, n)
	}
}
