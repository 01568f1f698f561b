package zkv

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"testing"
)

// warmPinnedDigest is TestPersistWarmReopenPinned's digest, recorded on the
// build that rebuilt a warm shard's tag array with one placement per resident
// slot. A build that validates the slot table in place instead must reproduce
// it: the same tags, the same ranks, therefore the same victims.
const warmPinnedDigest = "6fac4be2f6a5b4ff6d182fa093943ae711118aeca7359b1c5dc354c43bc63e9c"

// warmStream drives s with n seeded operations over keys [0, keys): 55% Set
// with a value of under maxVal bytes whose length and bytes follow from the
// key and the operation, 35% Get, 10% Delete. Every outcome goes into d.
func warmStream(t *testing.T, s *Store, d hash.Hash, seed int64, n, keys, maxVal int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var key [8]byte
	val := make([]byte, maxVal)
	var dst []byte
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(keys))
		binary.BigEndian.PutUint64(key[:], k)
		switch op := rng.Intn(20); {
		case op < 11:
			v := val[:int(k*7+uint64(i))%len(val)]
			for j := range v {
				v[j] = byte(k) ^ byte(i) ^ byte(j)
			}
			if err := s.Set(key[:], v); err != nil {
				t.Fatal(err)
			}
		case op < 18:
			var ok bool
			dst, ok = s.Get(key[:], dst[:0])
			fmt.Fprintf(d, "get %d %t %x\n", k, ok, dst)
		default:
			fmt.Fprintf(d, "del %d %t\n", k, s.Delete(key[:]))
		}
	}
}

// TestPersistWarmReopenPinned pins what a warm open reproduces. A 2-shard
// persistent store is driven past capacity by a seeded Set/Get/Delete stream
// and closed; it is reopened warm with a smaller value bound, so entries over
// it are dropped at open, and driven by a second stream. The digest covers
// both streams' outcomes, the evict hook's victims, the Stats counters of
// both stores and one full paged MigrateRange listing of the second.
func TestPersistWarmReopenPinned(t *testing.T) {
	skipNoPersist(t)
	cfg := Config{Shards: 2, Ways: 4, Rows: 64, Levels: 2, Seed: 28, PersistDir: t.TempDir()}
	d := sha256.New()
	open := func(cfg Config) *Store {
		t.Helper()
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.SetEvictHook(func(shard int, line uint64) { fmt.Fprintf(d, "evict %d %016x\n", shard, line) })
		return s
	}

	s := open(cfg)
	warmStream(t, s, d, 1, 6000, 1500, 300)
	fmt.Fprintf(d, "stats %+v\n", s.Stats())
	closed := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.MaxValBytes = 200
	s = open(cfg)
	defer s.Close()
	rep := s.Persist()
	if rep.WarmShards != cfg.Shards {
		t.Fatalf("reopen: %+v, want every shard warm", rep)
	}
	if rep.WarmEntries == closed || rep.WarmEntries < closed/2 {
		t.Fatalf("reopen restored %d of %d entries: the value bound must drop some, not most", rep.WarmEntries, closed)
	}
	fmt.Fprintf(d, "warm %d entries %d resident\n", rep.WarmEntries, s.Len())
	warmStream(t, s, d, 2, 6000, 1500, cfg.MaxValBytes)
	fmt.Fprintf(d, "stats %+v\n", s.Stats())
	var cursor uint64
	for {
		page, next, count := s.MigrateRange(0, 0, cursor, 1<<10, nil)
		fmt.Fprintf(d, "page %d %d %d %x\n", cursor, next, count, page)
		if next == 0 {
			break
		}
		cursor = next
	}
	if got := hex.EncodeToString(d.Sum(nil)); got != warmPinnedDigest {
		t.Fatalf("warm reopen digest %s, pinned %s", got, warmPinnedDigest)
	}
}
