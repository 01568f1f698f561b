package zkv

import (
	"encoding/binary"
	"sync"
	"testing"

	"zcache/internal/hash"
)

// largeRows is the large-geometry instrument's rows per way: 2^18, so one
// 4-way shard's slot headers — its tag array — are 32 MB, far past the
// host's caches, and a walk's tag reads and a GET's probes can miss.
const largeRows = 1 << 18

// large is the instrument's store, filled once per process: one shard of
// largeRows rows that has taken twice its capacity in fresh keys, so it is
// full and every further fresh key's SET walks and evicts. next is the next
// fresh key.
var large struct {
	once sync.Once
	s    *Store
	next uint64
	err  error
}

// largeKey writes fresh key k into kb: a hashed counter, so consecutive keys
// land in unrelated slots.
func largeKey(kb *[8]byte, k uint64) []byte {
	binary.BigEndian.PutUint64(kb[:], hash.Mix64(k))
	return kb[:]
}

func largeStore(b *testing.B) *Store {
	large.once.Do(func() {
		large.s, large.err = Open(Config{Shards: 1, Ways: 4, Rows: largeRows, Levels: 2, Seed: 17})
		if large.err != nil {
			return
		}
		var kb [8]byte
		val := make([]byte, 16)
		for n := uint64(2 * large.s.Capacity()); large.next < n && large.err == nil; large.next++ {
			large.err = large.s.Set(largeKey(&kb, large.next), val)
		}
	})
	if large.err != nil {
		b.Fatal(large.err)
	}
	return large.s
}

// BenchmarkZKVGetLarge reads the most recently written capacity's worth of
// keys, most of them resident, in hashed order at largeRows.
func BenchmarkZKVGetLarge(b *testing.B) {
	s := largeStore(b)
	span := uint64(s.Capacity())
	var kb [8]byte
	dst := make([]byte, 0, 64)
	hits := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		if dst, ok = s.Get(largeKey(&kb, large.next-1-uint64(i)%span), dst[:0]); ok {
			hits++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(hits)/float64(b.N), "hitrate")
}

// BenchmarkZKVSetInsertLarge writes fresh keys into the full store at
// largeRows: every SET misses, walks and evicts.
func BenchmarkZKVSetInsertLarge(b *testing.B) {
	s := largeStore(b)
	var kb [8]byte
	val := make([]byte, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set(largeKey(&kb, large.next), val); err != nil {
			b.Fatal(err)
		}
		large.next++
	}
}
