package zkv

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func testConfig() Config {
	return Config{Shards: 2, Ways: 4, Rows: 64, Levels: 2, Seed: 42}
}

func TestSetGetDelete(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("hello")
	if _, ok := s.Get(key, nil); ok {
		t.Fatal("got a value from an empty store")
	}
	if err := s.Set(key, []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get(key, nil)
	if !ok || string(v) != "world" {
		t.Fatalf("Get = %q, %t; want world, true", v, ok)
	}
	if err := s.Set(key, []byte("again")); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(key, nil); string(v) != "again" {
		t.Fatalf("overwrite lost: got %q", v)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	if !s.Delete(key) {
		t.Fatal("Delete missed a resident key")
	}
	if s.Delete(key) {
		t.Fatal("Delete hit a removed key")
	}
	if _, ok := s.Get(key, nil); ok {
		t.Fatal("Get hit after Delete")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after delete, want 0", s.Len())
	}
	st := s.Stats()
	if st.Sets != 2 || st.Inserts != 1 || st.Overwrites != 1 || st.DelHits != 1 {
		t.Fatalf("stats off: %+v", st)
	}
}

func TestGetAppendsToDst(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Set([]byte("k"), []byte("vvv")); err != nil {
		t.Fatal(err)
	}
	buf := []byte("prefix-")
	out, ok := s.Get([]byte("k"), buf)
	if !ok || string(out) != "prefix-vvv" {
		t.Fatalf("Get append = %q, %t", out, ok)
	}
}

func TestEvictionUnderPressure(t *testing.T) {
	cfg := Config{Shards: 1, Ways: 4, Rows: 16, Levels: 2, Seed: 7}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cap := s.Capacity()
	// Insert 4x capacity distinct keys; the store must stay at capacity
	// and account every displaced entry as an eviction.
	for i := 0; i < 4*cap; i++ {
		if err := s.Set([]byte(fmt.Sprintf("key-%06d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() > cap {
		t.Fatalf("resident %d exceeds capacity %d", s.Len(), cap)
	}
	st := s.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions after 4x-capacity insert storm")
	}
	if got := int(st.Inserts) - int(st.Evictions) - int(st.DelHits); got != s.Len() {
		t.Fatalf("resident accounting: inserts-evictions = %d, Len = %d", got, s.Len())
	}
	// Walk-depth histogram must have recorded every insert.
	var hist uint64
	for _, v := range st.WalkDepth {
		hist += v
	}
	if hist != st.Inserts {
		t.Fatalf("walk histogram sums to %d, want %d inserts", hist, st.Inserts)
	}
	// Deep shards under pressure should relocate at least occasionally.
	if st.Relocations == 0 {
		t.Fatal("no relocations despite walk levels > 1 and full shard")
	}
}

func TestValuesFollowRelocations(t *testing.T) {
	cfg := Config{Shards: 1, Ways: 4, Rows: 16, Levels: 3, Seed: 3}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Keep a shadow map of what should be resident; after heavy churn,
	// every surviving key must still return its own value (relocations
	// must have carried the right cells along).
	shadow := map[string]string{}
	for i := 0; i < 8*s.Capacity(); i++ {
		k := fmt.Sprintf("key-%06d", i%(2*s.Capacity()))
		v := fmt.Sprintf("val-%06d", i)
		if err := s.Set([]byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		shadow[k] = v
	}
	checked := 0
	var dst []byte
	for k, want := range shadow {
		var ok bool
		dst, ok = s.Get([]byte(k), dst[:0])
		if !ok {
			continue // evicted, fine
		}
		checked++
		if string(dst) != want {
			t.Fatalf("key %q returned %q, want %q", k, dst, want)
		}
	}
	if checked == 0 {
		t.Fatal("nothing resident to check")
	}
	if st := s.Stats(); st.Relocations == 0 {
		t.Fatal("churn produced no relocations; test is vacuous")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(Config{Shards: 4, Ways: 4, Rows: 64, Levels: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst []byte
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("key-%d", (g*31+i)%512))
				if i%3 == 0 {
					if err := s.Set(k, k); err != nil {
						t.Error(err)
						return
					}
				} else {
					var ok bool
					dst, ok = s.Get(k, dst[:0])
					if ok && string(dst) != string(k) {
						t.Errorf("got %q for key %q", dst, k)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestConfigValidation(t *testing.T) {
	if _, err := Open(Config{Shards: 3}); err == nil {
		t.Fatal("accepted non-power-of-two shard count")
	}
	if _, err := Open(Config{Rows: 100}); err == nil {
		t.Fatal("accepted non-power-of-two rows")
	}
	s, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Config(); c.Shards == 0 || c.Ways != 4 || c.Levels != 2 {
		t.Fatalf("defaults not applied: %+v", c)
	}
	if err := s.Set(nil, []byte("v")); err == nil {
		t.Fatal("accepted empty key")
	}
	if err := s.Set([]byte("k"), make([]byte, s.Config().MaxValBytes+1)); err == nil {
		t.Fatal("accepted oversized value")
	}
}

func TestDeterministicAcrossStores(t *testing.T) {
	// Two stores with the same seed must make identical eviction
	// decisions for the same operation sequence.
	mk := func() *Store {
		s, err := Open(Config{Shards: 2, Ways: 4, Rows: 32, Levels: 2, Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	for i := 0; i < 4000; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i%700))
		if err := a.Set(k, k); err != nil {
			t.Fatal(err)
		}
		if err := b.Set(k, k); err != nil {
			t.Fatal(err)
		}
	}
	sa, sb := a.Stats(), b.Stats()
	if sa != sb {
		t.Fatalf("same seed, diverging stats:\n%+v\n%+v", sa, sb)
	}
	if sa.Evictions == 0 {
		t.Fatal("determinism check saw no evictions; grow the churn")
	}
}

// TestScrapeDoesNotTakeShardMutex: Stats, Len and Persist read atomics, so a
// scrape finishes while a writer sits on a shard's mutex — and, run beside
// live writers under -race, races with nothing.
func TestScrapeDoesNotTakeShardMutex(t *testing.T) {
	s, err := Open(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := s.Set([]byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() { // a live writer on the other shards, for the race detector
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.Set([]byte(fmt.Sprintf("w%d", i%500)), []byte("v"))
			}
		}
	}()
	s.shards[0].mu.Lock()
	scraped := make(chan Stats)
	go func() {
		var st Stats
		for i := 0; i < 1000; i++ {
			st = s.Stats()
			st.Resident = s.Len()
			s.Persist()
		}
		scraped <- st
	}()
	st := <-scraped // blocks forever (the test times out) if a scrape locks shard 0
	s.shards[0].mu.Unlock()
	close(stop)
	writer.Wait()
	if st.Sets < 100 || st.Resident < 100 {
		t.Fatalf("scrape under a held mutex saw %d sets, %d resident", st.Sets, st.Resident)
	}
}

// TestUseAfterClose: once Close has returned, every operation finds an empty
// store instead of touching cells that are gone — unmapped, when they were a
// file.
func TestUseAfterClose(t *testing.T) {
	eachBacking(t, testConfig(), func(t *testing.T, s *Store) {
		key := []byte("hello")
		if err := s.Set(key, []byte("world")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if v, ok := s.Get(key, nil); ok {
			t.Fatalf("Get after Close hit with %q", v)
		}
		if err := s.Set(key, []byte("again")); !errors.Is(err, ErrClosed) {
			t.Fatalf("Set after Close = %v, want ErrClosed", err)
		}
		if s.Delete(key) {
			t.Fatal("Delete after Close hit")
		}
		if out, next, n := s.MigrateRange(0, 0, 0, 1<<20, nil); len(out) != 0 || next != 0 || n != 0 {
			t.Fatalf("MigrateRange after Close = %d bytes, cursor %d, %d entries", len(out), next, n)
		}
		if n := s.ForgetRange(0, 0); n != 0 {
			t.Fatalf("ForgetRange after Close dropped %d", n)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("Checkpoint after Close = %v", err)
		}
		s.Stats()
		if err := s.Close(); err != nil {
			t.Fatalf("second Close = %v", err)
		}
	})
}
