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
func benchStore(b *testing.B) (*Store, int) { return benchStoreKeyLen(b, 8) }

// benchStoreKeyLen is benchStore with keys of klen ≥ 8 bytes: the counter in
// the last eight, zeros before it.
func benchStoreKeyLen(b *testing.B, klen int) (*Store, int) {
	b.Helper()
	s, err := Open(Config{Shards: 4, Ways: 4, Rows: 1024, Levels: 2, Seed: 17})
	if err != nil {
		b.Fatal(err)
	}
	n := s.Capacity() / 2
	key := make([]byte, klen)
	val := make([]byte, 64)
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

// BenchmarkServerPipelinedGet is the serving path whole: one client sends
// 16-deep GET bursts over loopback TCP and waits for the replies, so an
// iteration is one request's share of client codec, two syscalls each way,
// serveConn and Store.Get. Client and server run in this process and both
// sides' allocations count: the path must stay at 0 allocs/op.
func BenchmarkServerPipelinedGet(b *testing.B) {
	s, n := benchStore(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(s, ServerConfig{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	cl, err := zkvproto.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	const depth = 16
	var key [8]byte
	burst := func(first int) {
		for i := first; i < first+depth; i++ {
			binary.BigEndian.PutUint64(key[:], uint64(i%n))
			if err := cl.QueueGet(key[:]); err != nil {
				b.Fatal(err)
			}
		}
		if err := cl.Flush(); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < depth; i++ {
			if resp, err := cl.ReadReply(); err != nil || resp.Status != zkvproto.StatusOK {
				b.Fatalf("reply: %v, %+v", err, resp)
			}
		}
	}
	burst(0) // size both sides' reusable buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += depth {
		burst(i)
	}
	b.StopTimer()
	cl.Close()
	if err := srv.Shutdown(context.Background()); err != nil {
		b.Fatal(err)
	}
	<-served
}
