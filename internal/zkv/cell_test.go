package zkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// eachBacking runs fn on a store of cfg whose cells are on the Go heap and,
// where the platform has it, on one whose cells are a mapped file.
func eachBacking(t *testing.T, cfg Config, fn func(t *testing.T, s *Store)) {
	for _, persist := range []bool{false, true} {
		t.Run(fmt.Sprintf("persist=%v", persist), func(t *testing.T) {
			cfg := cfg
			if persist {
				skipNoPersist(t)
				cfg.PersistDir = t.TempDir()
			}
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			fn(t, s)
		})
	}
}

// TestGetAllocs pins what a Get may allocate at key lengths on and off a
// word boundary and value lengths from empty to many words: nothing when dst
// has room for the value, and one buffer — sized once, not regrown chunk by
// chunk — when it does not.
func TestGetAllocs(t *testing.T) {
	eachBacking(t, Config{Shards: 1, Ways: 4, Rows: 64, Levels: 2, Seed: 3}, testGetAllocs)
}

// TestGetAllocsPerWayHashing is TestGetAllocs on a geometry the indexer's
// packed table does not serve: the probe hashes way by way into rows that
// must stay on the reader's stack.
func TestGetAllocsPerWayHashing(t *testing.T) {
	eachBacking(t, Config{Shards: 1, Ways: 8, Rows: 32, Levels: 2, Seed: 3}, testGetAllocs)
}

func testGetAllocs(t *testing.T, s *Store) {
	for _, klen := range []int{1, 8, 13, 16} {
		for _, vlen := range []int{0, 7, 64, 1024} {
			key := bytes.Repeat([]byte{byte('a' + klen)}, klen)
			val := make([]byte, vlen)
			for i := range val {
				val[i] = byte(i*7 + klen)
			}
			if err := s.Set(key, val); err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("klen %d vlen %d", klen, vlen)

			var got []byte
			var ok bool
			if n := testing.AllocsPerRun(100, func() { got, ok = s.Get(key, nil) }); n > 1 {
				t.Errorf("%s: Get(k, nil) allocates %.0f times, want at most 1", name, n)
			}
			if !ok || !bytes.Equal(got, val) {
				t.Errorf("%s: Get(k, nil) = %x, %v", name, got, ok)
			}

			dst := make([]byte, 3, 3+vlen)
			copy(dst, "pre")
			if n := testing.AllocsPerRun(100, func() { got, ok = s.Get(key, dst) }); n != 0 {
				t.Errorf("%s: Get into a dst with capacity allocates %.0f times, want 0", name, n)
			}
			if !ok || !bytes.Equal(got[:3], []byte("pre")) || !bytes.Equal(got[3:], val) {
				t.Errorf("%s: Get(k, dst) = %x, %v", name, got, ok)
			}
		}
	}
}

// TestSetAllocs pins the steady-state SET path at zero allocations on either
// backing: overwrites in place, and inserts that evict (and sometimes
// relocate) once every slot has held an entry of the size written — what
// BenchmarkZKVSet and BenchmarkZKVSetPersist only report.
func TestSetAllocs(t *testing.T) {
	eachBacking(t, Config{Shards: 1, Ways: 4, Rows: 64, Levels: 2, Seed: 5}, func(t *testing.T, s *Store) {
		var key [8]byte
		val := make([]byte, 64)
		next := 0
		insert := func() {
			binary.BigEndian.PutUint64(key[:], uint64(next))
			next++
			if err := s.Set(key[:], val); err != nil {
				t.Fatal(err)
			}
		}
		for next < 8*s.Capacity() { // every slot's extent reaches this entry size
			insert()
		}
		before := s.Stats()
		if n := testing.AllocsPerRun(1000, insert); n != 0 {
			t.Errorf("insert with eviction allocates %.2f times per Set, want 0", n)
		}
		if d := s.Stats(); d.Evictions-before.Evictions < 900 || d.Relocations == before.Relocations {
			t.Fatalf("inserts drove %d evictions and %d relocations", d.Evictions-before.Evictions, d.Relocations-before.Relocations)
		}
		before = s.Stats()
		if n := testing.AllocsPerRun(1000, func() {
			if err := s.Set(key[:], val); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("overwrite allocates %.2f times per Set, want 0", n)
		}
		if d := s.Stats(); d.Overwrites-before.Overwrites < 1000 {
			t.Fatalf("only %d of the repeated Sets were overwrites", d.Overwrites-before.Overwrites)
		}
	})
}

// liveHeap is the heap still reachable after two collections (the second
// frees what the first's finalizers released).
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestBytesPerEntry is the footprint gate: the live Go heap a full store of
// 8-byte keys and 64-byte values holds, per resident entry. On the heap one
// cell per entry measures ~99 B: the 16-byte slot header (tag and extent
// locator), the 80-byte extent (lengths word, key word, eight value words)
// and what the persist row measures alone; a header regrown by one word, or
// a second in-memory copy of the entry, fails the bound. With PersistDir the
// slot table and the extents are the mapped file, and what is left on the
// heap, ~2.4 B, is the 8-bit LRU stamp per slot plus fixed costs: any heap
// copy of the entries, or two more bytes of per-slot state, fails that row.
func TestBytesPerEntry(t *testing.T) {
	for _, c := range []struct {
		name    string
		persist bool
		bound   float64
	}{{"heap", false, 105}, {"persist", true, 5}} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Shards: 2, Ways: 4, Rows: 4096, Levels: 2, Seed: 9}
			if c.persist {
				skipNoPersist(t)
				cfg.PersistDir = t.TempDir()
			}
			heap0 := liveHeap()
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var key [8]byte
			val := make([]byte, 64)
			for i := 0; i < 2*s.Capacity(); i++ {
				binary.BigEndian.PutUint64(key[:], uint64(i))
				if err := s.Set(key[:], val); err != nil {
					t.Fatal(err)
				}
			}
			heap1 := liveHeap()
			resident := s.Len()
			runtime.KeepAlive(s)
			if resident < s.Capacity()*9/10 || heap1 <= heap0 {
				t.Fatalf("fill left %d of %d entries in %d heap bytes", resident, s.Capacity(), int64(heap1)-int64(heap0))
			}
			per := float64(heap1-heap0) / float64(resident)
			t.Logf("%d entries, %.1f B/entry", resident, per)
			if per > c.bound {
				t.Errorf("%.1f heap bytes per entry, want at most %.0f", per, c.bound)
			}
		})
	}
}
