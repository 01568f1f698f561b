package zkv

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"zcache/internal/hash"
)

// Self-certifying entries for the torn-value stress. Key k is 1–24 bytes
// long (so most keys end mid-word in their cell), and a value written at
// version ver is tornLen(k, ver) bytes — 0 to 200, so one slot's buffer grows
// and shrinks as versions pass — of one 8-byte stamp, ver<<12|k, repeated and
// cut off. A reader holding any value of a stamp or more recovers the key and
// the version from the first word and can certify the length and every byte
// after it; a shorter value still shows the key's low bytes.
func tornKey(buf []byte, k uint64) []byte {
	buf = append(buf[:0], byte(k/24))
	for j := uint64(1); j < 1+k%24; j++ {
		buf = append(buf, byte(k%24+j))
	}
	return buf
}

func tornLen(k, ver uint64) int { return int(hash.Mix64(ver<<12|k) % 201) }

func tornVal(buf []byte, k, ver uint64) []byte {
	var stamp [8]byte
	binary.LittleEndian.PutUint64(stamp[:], ver<<12|k)
	buf = buf[:0]
	for n := tornLen(k, ver); len(buf) < n; {
		buf = append(buf, stamp[:min(8, n-len(buf))]...)
	}
	return buf
}

func tornCheck(val []byte, k uint64) error {
	var stamp [8]byte
	if len(val) >= 8 {
		copy(stamp[:], val)
		w := binary.LittleEndian.Uint64(stamp[:])
		if w&0xfff != k {
			return fmt.Errorf("key %d: got a value stamped for key %d", k, w&0xfff)
		}
		if want := tornLen(k, w>>12); len(val) != want {
			return fmt.Errorf("key %d version %d: torn length %d, written as %d", k, w>>12, len(val), want)
		}
	} else {
		binary.LittleEndian.PutUint64(stamp[:], k)
		if len(val) >= 2 {
			stamp[1] |= val[1] & 0xf0 // the version's low bits share this byte
		}
		val = val[:min(len(val), 2)]
	}
	for i, b := range val {
		if b != stamp[i%8] {
			return fmt.Errorf("key %d: torn value: byte %d is %#x, stamp % x", k, i, b, stamp)
		}
	}
	return nil
}

// TestTornValueUnderRelocationStress hammers lock-free GETs against a writer
// driving constant eviction and relocation pressure through one small shard,
// with key and value lengths that vary per write (see tornKey), so cells are
// regrown and republished under the readers and keys end mid-word. A reader
// that ever observes a mix of two versions (a torn seqlock window that
// validated), a length from another version, or a value belonging to a
// different key fails loudly. It runs on both backings: extents are
// reallocated as values grow, and the file-backed store also grows its file
// — one more mapping each time — under the readers. Run under -race in the CI
// chaos job, the heap-backed case also proves the seqlock protocol is free of
// data races, not just free of observable tears (the race detector does not
// track a mapping's memory; the stress itself covers that case).
func TestTornValueUnderRelocationStress(t *testing.T) {
	eachBacking(t, Config{Shards: 1, Ways: 4, Rows: 64, Levels: 2, Seed: 42}, testTornValue)
}

func testTornValue(t *testing.T, s *Store) {
	const (
		keys    = 512 // 2x capacity: every Set can trigger a walk + chain
		readers = 4
		readOps = 30000 // per reader, at least
		// minRelocs is the writer progress the readers wait for: the shard
		// filled (256 slots) and relocation chains published under them.
		minRelocs = 500
	)
	// The readers run until the writer has done what the test is about —
	// minRelocs relocations and, file-backed, two file growths — not for a
	// fixed op count that a fast GET path can finish before the shard has
	// even filled. The deadline only bounds a run in which the writer never
	// gets there; the checks at the end then say what was missing.
	deadline := time.Now().Add(30 * time.Second)
	var pressured atomic.Bool
	// A fresh file has 64 heap bytes per slot and at least doubles per
	// growth: four times that is two growths under the readers.
	grownTwice := func() bool {
		if s.cfg.PersistDir == "" {
			return true
		}
		fi, err := os.Stat(s.persistPath(0))
		slots := int64(s.Capacity())
		return err == nil && fi.Size() >= 4096+32*slots+4*64*slots
	}

	stop := make(chan struct{})
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		rng := rand.New(rand.NewSource(1))
		var key, val []byte
		for ver := uint64(0); ; ver++ {
			select {
			case <-stop:
				return
			default:
			}
			k := uint64(rng.Intn(keys))
			key, val = tornKey(key, k), tornVal(val, k, ver)
			if err := s.Set(key, val); err != nil {
				t.Errorf("set: %v", err)
				return
			}
			if ver&127 == 0 {
				key = tornKey(key, uint64(rng.Intn(keys)))
				s.Delete(key)
				if !pressured.Load() && s.Stats().Relocations >= minRelocs && grownTwice() {
					pressured.Store(true)
				}
			}
		}
	}()

	errs := make(chan error, readers)
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var key, dst []byte
			if r > 0 {
				// Reader 0 keeps a nil dst, so its hits size a fresh buffer.
				dst = make([]byte, 0, 200)
			}
			for i := 0; ; i++ {
				if i >= readOps && (pressured.Load() || i&1023 == 0 && time.Now().After(deadline)) {
					return
				}
				k := uint64(rng.Intn(keys))
				key = tornKey(key, k)
				got, ok := s.Get(key, dst)
				if !ok {
					continue
				}
				if err := tornCheck(got, k); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := s.Stats()
	if st.GetHits == 0 {
		t.Fatal("stress run produced no lock-free hits; the test exercised nothing")
	}
	if st.Relocations < minRelocs {
		t.Fatalf("stress run published %d relocations before the deadline, want >= %d; shrink the shard",
			st.Relocations, minRelocs)
	}
	t.Logf("gets %d (hits %d, locked fallbacks %d), sets %d, relocations %d, evictions %d",
		st.Gets, st.GetHits, st.GetLocked, st.Sets, st.Relocations, st.Evictions)
	if !grownTwice() {
		t.Fatal("shard file did not grow twice under the readers before the deadline")
	}
}
