package zkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"
)

// TestGetAllocs pins what a Get may allocate at key lengths on and off a
// word boundary and value lengths from empty to many words: nothing when dst
// has room for the value, and one buffer — sized once, not regrown chunk by
// chunk — when it does not.
func TestGetAllocs(t *testing.T) {
	s, err := Open(Config{Shards: 1, Ways: 4, Rows: 64, Levels: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
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

// TestBytesPerEntry is the footprint gate: the live heap a full store of
// 8-byte keys and 64-byte values holds, per resident entry. One cell per
// entry measures ~164 B here (tags, ranking and the 80-byte cell buffer
// included); a second in-memory copy of the entry adds over 100 B and fails
// the bound.
func TestBytesPerEntry(t *testing.T) {
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	heap0 := liveHeap()
	s, err := Open(Config{Shards: 2, Ways: 4, Rows: 4096, Levels: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
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
	if per > 180 {
		t.Errorf("%.1f heap bytes per entry, want at most 180", per)
	}
}
