package zkv

import (
	"encoding/binary"
	"testing"

	"zcache/internal/failpoint"
	"zcache/internal/hash"
	"zcache/internal/slotstore"
)

// TestPersistChaosNeverWrong is the crash-contract chaos sweep the issue
// demands: 100 seeded iterations, each running a write-heavy phase whose
// shutdown is chosen deterministically from {graceful close, simulated
// kill -9, injected msync faults, injected torn cell writes, injected
// close faults}. After every iteration the store reopens and every key the
// oracle knows is probed:
//
//   - a Get may MISS (cold shard after a rebuild signal, evicted, or never
//     persisted) — that is the cache being a cache;
//   - a Get that HITS must return exactly the oracle's value — zero wrong
//     values across the sweep, whatever the crash left on disk;
//   - graceful-close iterations must reopen warm with ≥ 90% of the
//     resident keys served as hits.
func TestPersistChaosNeverWrong(t *testing.T) {
	if !slotstore.Supported() {
		t.Skip("persistence unsupported on this platform")
	}
	defer failpoint.Reset()

	const iterations = 100
	dir := t.TempDir()
	cfg := Config{
		Shards: 2, Ways: 4, Rows: 32, Levels: 2, Seed: 1234,
		PersistDir: dir,
	}

	// oracle maps key index -> value revision last written; rev 0 = never
	// written. Values are derived from (key, rev), so any stale or torn
	// value fails verification.
	const keySpace = 512
	oracle := make([]uint64, keySpace)
	rng := hash.Mix64(0xc4a5)

	next := func() uint64 { rng = hash.Mix64(rng + 0x9e3779b97f4a7c15); return rng }
	mkVal := func(k int, rev uint64, buf []byte) []byte {
		buf = buf[:0]
		var w [8]byte
		binary.BigEndian.PutUint64(w[:], uint64(k)^rev*0x9e37)
		for len(buf) < 24 {
			buf = append(buf, w[:]...)
		}
		return buf
	}

	var key [8]byte
	valBuf := make([]byte, 0, 32)
	warmChecked := 0

	for iter := 0; iter < iterations; iter++ {
		s, err := Open(cfg)
		if err != nil {
			t.Fatalf("iter %d: open: %v", iter, err)
		}

		// The oracle only believes a write once it is certain the store
		// accepted it; within one process lifetime memory always has it,
		// so record-then-write is sound for the in-process phase, and
		// after a restart a miss is always acceptable.
		mode := next() % 5
		if mode >= 2 {
			// Fault modes arm their failpoint before the traffic.
			switch mode {
			case 2:
				failpoint.Enable("slotstore/msync", failpoint.Error, 0.3, 0,
					failpoint.WithSeed(next()))
			case 3:
				failpoint.Enable("slotstore/write", failpoint.Torn, 0.05, 0,
					failpoint.WithTruncate(1+int(next()%16)), failpoint.WithSeed(next()))
			case 4:
				failpoint.Enable("slotstore/close", failpoint.Error, 1, 0)
			}
		}

		writes := 64 + int(next()%128)
		for j := 0; j < writes; j++ {
			k := int(next() % keySpace)
			oracle[k]++
			binary.BigEndian.PutUint64(key[:], uint64(k))
			valBuf = mkVal(k, oracle[k], valBuf)
			if err := s.Set(key[:], valBuf); err != nil {
				t.Fatalf("iter %d: set: %v", iter, err)
			}
			if next()%16 == 0 {
				if s.Delete(key[:]) {
					oracle[k] = 0
				}
			}
		}

		graceful := false
		switch mode {
		case 0: // graceful drain
			graceful = true
			preResident := s.Len()
			if err := s.Close(); err != nil {
				t.Fatalf("iter %d: clean close: %v", iter, err)
			}
			failpoint.Reset()
			// Reopen immediately and demand warmth ≥ 90%.
			s2, err := Open(cfg)
			if err != nil {
				t.Fatalf("iter %d: warm reopen: %v", iter, err)
			}
			rep := s2.Persist()
			// Every entry is mirrored, so a graceful close must restore
			// everything.
			if rep.WarmEntries*10 < preResident*9 {
				t.Fatalf("iter %d: warm restored %d of %d resident (< 90%%)",
					iter, rep.WarmEntries, preResident)
			}
			warmChecked++
			s = s2
		case 1: // kill -9
			abandon(s)
			failpoint.Reset()
			s2, err := Open(cfg)
			if err != nil {
				t.Fatalf("iter %d: reopen after crash: %v", iter, err)
			}
			s = s2
		default: // fault modes: close (faults may fire), then reopen
			abandonOrClose := next()%2 == 0
			if abandonOrClose {
				abandon(s)
			} else {
				s.Close() // may fail through the close failpoint; either way
			}
			failpoint.Reset()
			s2, err := Open(cfg)
			if err != nil {
				t.Fatalf("iter %d: reopen after faults: %v", iter, err)
			}
			s = s2
		}

		// The universal contract: no wrong values, ever.
		hits := 0
		for k := 0; k < keySpace; k++ {
			binary.BigEndian.PutUint64(key[:], uint64(k))
			got, ok := s.Get(key[:], valBuf[:0])
			if !ok {
				continue
			}
			hits++
			if oracle[k] == 0 {
				t.Fatalf("iter %d: deleted/unwritten key %d hit with %x", iter, k, got)
			}
			want := mkVal(k, oracle[k], nil)
			if string(got) != string(want) {
				t.Fatalf("iter %d (mode %d): key %d wrong value: got %x want %x",
					iter, mode, k, got, want)
			}
		}
		valBuf = valBuf[:0]
		if graceful && hits == 0 {
			t.Fatalf("iter %d: graceful restart served zero hits", iter)
		}

		// A crashed or faulted image may leave stale revisions on disk; the
		// reopened store is authoritative now, so resync the oracle to what
		// is actually resident before the next iteration writes over it.
		for k := 0; k < keySpace; k++ {
			binary.BigEndian.PutUint64(key[:], uint64(k))
			if _, ok := s.Get(key[:], valBuf[:0]); !ok {
				oracle[k] = 0
			}
		}
		abandon(s) // next iteration reopens; files roll forward
	}
	if warmChecked == 0 {
		t.Fatal("sweep never exercised the graceful-close mode")
	}
}
