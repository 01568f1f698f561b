package slotstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"zcache/internal/failpoint"
	"zcache/internal/hash"
)

func testConfig() Config {
	return Config{
		Slots: 64,
		Seed:  7, Ways: 4, Levels: 2, Rows: 16,
		Policy: 0, Shard: 3, ShardCount: 8,
	}
}

func mustCreate(t *testing.T, path string, cfg Config) *Store {
	t.Helper()
	if !Supported() {
		t.Skip("slotstore unsupported on this platform")
	}
	s, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// put writes one entry in its own Begin/End batch.
func put(t *testing.T, s *Store, key, val string, slot int) uint64 {
	t.Helper()
	fp := hash.Bytes64([]byte(key))
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetSlot(slot, fp, []byte(key), []byte(val)); err != nil {
		t.Fatal(err)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	return fp
}

// extentOf decodes slot id's locator in the mapped image: its extent's byte
// offset and capacity, zeros when it has none.
func extentOf(s *Store, id int) (off, capBytes uint64) {
	loc := le.Uint64(s.m[s.slot(id)+slotLoc:])
	if loc == 0 {
		return 0, 0
	}
	o, class := located(loc)
	return uint64(o), uint64(classWords(class)) * 8
}

func TestRoundTripWarmReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	fpA := put(t, s, "alpha", "value-a", 5)
	fpB := put(t, s, "beta", "value-b", 9)
	if got := s.Resident(); got != 2 {
		t.Fatalf("resident = %d, want 2", got)
	}
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("warm open: %v", err)
	}
	defer s2.Close(true)
	if got := s2.Resident(); got != 2 {
		t.Fatalf("reopened resident = %d, want 2", got)
	}
	if k, v, ok := s2.Lookup(fpA); !ok || string(k) != "alpha" || string(v) != "value-a" {
		t.Fatalf("Lookup(alpha) = %q, %q, %t", k, v, ok)
	}
	if k, v, ok := s2.Lookup(fpB); !ok || string(k) != "beta" || string(v) != "value-b" {
		t.Fatalf("Lookup(beta) = %q, %q, %t", k, v, ok)
	}
	seen := 0
	s2.Range(func(slot int, fp uint64, key, val []byte) bool {
		seen++
		if slot != 5 && slot != 9 {
			t.Fatalf("unexpected resident slot %d", slot)
		}
		return true
	})
	if seen != 2 {
		t.Fatalf("Range visited %d cells, want 2", seen)
	}
}

// TestReadOnlySessionIsBitIdentical pins the clean-reopen contract: Open +
// Range + Close(true) with no Begin must not change a single byte.
func TestReadOnlySessionIsBitIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "k1", "v1", 0)
	put(t, s, "k2", "v2", 63)
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Range(func(int, uint64, []byte, []byte) bool { return true })
	if err := s2.Close(true); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("read-only open/close session modified the file")
	}
}

func TestCrashedSessionNeedsRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "k", "v", 1)
	// Simulate kill -9: unmap without the clean mark.
	if err := s.Close(false); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("Open after crash = %v, want ErrNeedsRebuild", err)
	}
}

func TestOddGenerationNeedsRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "k", "v", 1)
	// Crash mid-publish: generation left odd, then the file is force-marked
	// clean to prove the generation check fires on its own.
	s.setGen(s.Generation() + 1)
	s.setState(StateClean)
	if err := s.Close(false); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("Open with odd generation = %v, want ErrNeedsRebuild", err)
	}
}

func TestGeometryMismatchInvalidFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "k", "v", 1)
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	for name, mut := range map[string]func(*Config){
		"seed":        func(c *Config) { c.Seed++ },
		"rows":        func(c *Config) { c.Rows *= 2; c.Slots *= 2 },
		"shard":       func(c *Config) { c.Shard++ },
		"shard count": func(c *Config) { c.ShardCount *= 2 },
		"policy":      func(c *Config) { c.Policy = 1 },
	} {
		other := cfg
		mut(&other)
		if _, err := Open(path, other); !errors.Is(err, ErrInvalidFormat) {
			t.Errorf("%s mismatch: Open = %v, want ErrInvalidFormat", name, err)
		}
	}
	// The matching config still opens warm.
	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Close(true)
}

func TestTruncatedFileNeedsRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "k", "v", 1)
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// One byte short of the heap, then short of the slot table.
	for _, size := range []int64{fi.Size() - 1, int64(heapBase(cfg.Slots)) - 1} {
		if err := os.Truncate(path, size); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
			t.Fatalf("Open of file truncated to %d = %v, want ErrNeedsRebuild", size, err)
		}
	}
	if err := os.Truncate(path, headerBytes-1); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg); !errors.Is(err, ErrInvalidFormat) {
		t.Fatalf("Open of sub-header file = %v, want ErrInvalidFormat", err)
	}
}

func TestCorruptCellNeedsRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "victim-key", "victim-val", 7)
	keyOff, _ := extentOf(s, 7)
	keyOff += 8 // past the lengths word
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	// Flip one key byte on the clean file: the fingerprint no longer
	// matches, which Open's scan must catch.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[keyOff] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("Open with corrupt cell = %v, want ErrNeedsRebuild", err)
	}
}

// TestGrowthCrashAndCleanClose fills the store past its initial heap inside
// one dirty session, so the file grows (ftruncate + one more mapping) under
// live entries. Killed without Close, the grown file needs a rebuild; closed
// cleanly, it reopens warm with every byte intact.
func TestGrowthCrashAndCleanClose(t *testing.T) {
	cfg := testConfig()
	val := bytes.Repeat([]byte("0123456789abcdef"), 64) // 1 KiB: 16 slots' worth of initial heap each
	for _, clean := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "shard.slc")
		s := mustCreate(t, path, cfg)
		initial := s.heapBase + s.heapSize
		for i := 0; i < cfg.Slots; i++ {
			put(t, s, fmt.Sprintf("grow-%02d", i), string(val[:len(val)-i]), i)
		}
		if s.heapBase+s.heapSize <= initial || len(s.maps) < 2 {
			t.Fatalf("file is still %d bytes in %d mappings after %d KiB of entries", s.heapBase+s.heapSize, len(s.maps), cfg.Slots)
		}
		if err := s.Close(clean); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(path, cfg)
		if !clean {
			if !errors.Is(err, ErrNeedsRebuild) {
				t.Fatalf("Open after crash in a grown session = %v, want ErrNeedsRebuild", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("warm open of a grown file: %v", err)
		}
		if s2.Resident() != cfg.Slots {
			t.Fatalf("resident = %d, want %d", s2.Resident(), cfg.Slots)
		}
		s2.Range(func(slot int, fp uint64, key, got []byte) bool {
			if string(key) != fmt.Sprintf("grow-%02d", slot) || !bytes.Equal(got, val[:len(val)-slot]) {
				t.Fatalf("slot %d came back as %q with a %d-byte value", slot, key, len(got))
			}
			return true
		})
		s2.Close(true)
	}
}

// TestGrowFailpointFailsSetSlot: a failed file growth is a SetSlot error
// that detaches the store — the entry lands in a Go-heap segment and is
// served, later writes keep working, and the file is never clean-marked
// again, so even a clean close leaves it needing a rebuild.
func TestGrowFailpointFailsSetSlot(t *testing.T) {
	defer failpoint.Reset()
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	fp := put(t, s, "k", "small", 3)
	failpoint.Enable("slotstore/grow", failpoint.Error, 1, 0)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("grown"), 1<<14)
	written, err := s.SetSlot(3, fp, []byte("k"), big)
	if err == nil || !written || !s.Detached() {
		t.Fatalf("SetSlot through a failing growth = %t, %v, detached %t", written, err, s.Detached())
	}
	s.End()
	failpoint.Reset()
	if _, v, ok := s.Lookup(fp); !ok || !bytes.Equal(v, big) || s.Resident() != 1 {
		t.Fatal("entry written through the failed growth is not served")
	}
	// Small and large entries after the fault come from heap segments too.
	for i := 0; i < 40; i++ {
		val := strings.Repeat(string(rune('a'+i%26)), 100+i*700)
		fpI := put(t, s, fmt.Sprintf("after-%02d", i), val, 4+i)
		if _, v, ok := s.Lookup(fpI); !ok || string(v) != val {
			t.Fatalf("entry %d written after the fault: %d bytes, %t", i, len(v), ok)
		}
	}
	if _, v, ok := s.Lookup(fp); !ok || !bytes.Equal(v, big) {
		t.Fatal("later writes disturbed the entry written through the fault")
	}
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("Open after failed growth = %v, want ErrNeedsRebuild", err)
	}
}

// TestExtentReuse pins the allocator: an overwrite that fits reuses the
// slot's extent, one that does not frees it to its class's list, the next
// allocation of that class takes it back, and a cleared slot keeps its
// extent. The free lists survive a clean restart.
func TestExtentReuse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "a", "0123456789abcdef", 0) // lengths + 1 + 2 words
	off0, cap0 := extentOf(s, 0)
	if cap0 != 32 {
		t.Fatalf("4-word entry got a %d-byte extent", cap0)
	}
	put(t, s, "a", "shorter", 0)
	if off, _ := extentOf(s, 0); off != off0 {
		t.Fatalf("fitting overwrite moved the extent %d -> %d", off0, off)
	}
	put(t, s, "a", string(make([]byte, 100)), 0) // outgrows it
	if off, c := extentOf(s, 0); off == off0 || c != 128 {
		t.Fatalf("growing overwrite: extent [%d, +%d), want a fresh 128-byte one", off, c)
	}
	used := s.heapUsed
	put(t, s, "b", "0123456789abcdef", 1)
	if off, _ := extentOf(s, 1); off != off0 || s.heapUsed != used {
		t.Fatalf("freed extent %d not reused: got %d, heap %d -> %d", off0, off, used, s.heapUsed)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	s.ClearSlot(1)
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if off, _ := extentOf(s, 1); off != off0 {
		t.Fatal("ClearSlot dropped the slot's extent")
	}
	put(t, s, "c", string(make([]byte, 200)), 0) // frees the 128-byte extent
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("reopen with a non-empty free list: %v", err)
	}
	defer s2.Close(true)
	used = s2.heapUsed
	put(t, s2, "d", string(make([]byte, 100)), 2)
	if s2.heapUsed != used {
		t.Fatalf("free list lost across restart: heap %d -> %d", used, s2.heapUsed)
	}
}

func TestSizeClasses(t *testing.T) {
	prev := 0
	for c := 0; c < numClasses; c++ {
		w := classWords(c)
		if w <= prev {
			t.Fatalf("class %d holds %d words, class %d held %d", c, w, c-1, prev)
		}
		// Every size in (prev, w] belongs to class c, wasting under 1/4.
		for _, n := range []int{prev + 1, w} {
			if got := sizeClass(n); got != c {
				t.Fatalf("sizeClass(%d) = %d, want %d (%d words)", n, got, c, w)
			}
		}
		if n := prev + 1; n > 8 && (w-n)*4 >= w {
			t.Fatalf("class %d wastes %d of %d words", c, w-n, w)
		}
		prev = w
	}
	if prev != maxExtentWords {
		t.Fatalf("largest class holds %d words, want %d", prev, maxExtentWords)
	}
}

// TestFileBytesPerSlot pins the format's density at the benchmark's entry
// size: a full shard of 8-byte keys and 64-byte values. Each slot is a
// 16-byte header and an 80-byte extent, and the heap's last doubling leaves
// slack: 145 B per slot. The bound leaves 3% of margin; 32-byte headers
// measure 161.
func TestFileBytesPerSlot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	cfg.Slots, cfg.Rows = 4096, 1024
	s := mustCreate(t, path, cfg)
	var key [8]byte
	val := make([]byte, 64)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Slots; i++ {
		le.PutUint64(key[:], uint64(i))
		if _, err := s.SetSlot(i, hash.Bytes64(key[:]), key[:], val); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(fi.Size()) / float64(cfg.Slots)
	t.Logf("%d-byte file, %.1f B/slot", fi.Size(), per)
	if per > 150 {
		t.Fatalf("%d-byte file for %d full slots: %.0f bytes per slot, want <= 150", fi.Size(), cfg.Slots, per)
	}
}

func TestMoveSlotFollowsIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	fp := put(t, s, "mover", "payload", 2)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	s.ClearSlot(10) // ensure destination vacated (it is — defensive)
	s.MoveSlot(2, 10)
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if k, v, ok := s.Lookup(fp); !ok || string(k) != "mover" || string(v) != "payload" {
		t.Fatalf("after move Lookup = %q, %q, %t", k, v, ok)
	}
	// Survives a clean cycle at the new slot.
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("reopen after move: %v", err)
	}
	defer s2.Close(true)
	found := -1
	s2.Range(func(slot int, gotFP uint64, key, val []byte) bool {
		found = slot
		return true
	})
	if found != 10 {
		t.Fatalf("entry persisted at slot %d, want 10", found)
	}
}

func TestDeleteManyLookupFindsSurvivors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j",
		"kk", "ll", "mm", "nn", "oo", "pp", "qq", "rr", "ss", "tt"}
	for i, k := range keys {
		put(t, s, k, "v-"+k, i)
	}
	// Delete every other key, then verify the survivors all still resolve
	// through the index Lookup derives.
	for i := 0; i < len(keys); i += 2 {
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		s.ClearSlot(i)
		if err := s.End(); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		fp := hash.Bytes64([]byte(k))
		_, v, ok := s.Lookup(fp)
		if i%2 == 0 {
			if ok {
				t.Fatalf("deleted key %q still resolves", k)
			}
		} else if !ok || string(v) != "v-"+k {
			t.Fatalf("survivor %q lost: %q, %t", k, v, ok)
		}
	}
	// And the image still validates end to end.
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("reopen after deletions: %v", err)
	}
	if s2.Resident() != len(keys)/2 {
		t.Fatalf("resident = %d, want %d", s2.Resident(), len(keys)/2)
	}
	s2.Close(true)
}

func TestCheckpointThenCrashIsClean(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "k", "v", 1)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Crash after the checkpoint with no further writes: the snapshot is
	// durable and clean, so reopen is warm.
	if err := s.Close(false); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("warm open after checkpointed crash: %v", err)
	}
	if s2.Resident() != 1 {
		t.Fatalf("resident = %d, want 1", s2.Resident())
	}
	s2.Close(true)
	// But a write after the checkpoint re-dirties the file durably before
	// mutating it, so a crash then needs a rebuild again.
	s3, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	put(t, s3, "k2", "v2", 2)
	if err := s3.Close(false); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("Open after post-checkpoint crash = %v, want ErrNeedsRebuild", err)
	}
}

func TestMsyncFailpointBlocksCleanClose(t *testing.T) {
	defer failpoint.Reset()
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "k", "v", 1)
	failpoint.Enable("slotstore/msync", failpoint.Error, 1, 0)
	if err := s.Close(true); err == nil {
		t.Fatal("clean close succeeded through a failing msync")
	}
	failpoint.Reset()
	if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("Open after failed clean close = %v, want ErrNeedsRebuild", err)
	}
}

func TestTornWriteFailpointLeavesRebuildSignal(t *testing.T) {
	defer failpoint.Reset()
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	failpoint.Enable("slotstore/write", failpoint.Torn, 1, 1, failpoint.WithTruncate(3))
	fp := hash.Bytes64([]byte("torn"))
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	written, err := s.SetSlot(0, fp, []byte("torn"), []byte("full-value"))
	if err == nil || !written {
		t.Fatalf("torn SetSlot = %t, %v; want written with the injected error", written, err)
	}
	s.End()
	// The process "crashes" here; the dirty mark is the rebuild signal.
	if err := s.Close(false); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, cfg); !errors.Is(err, ErrNeedsRebuild) {
		t.Fatalf("Open after torn write = %v, want ErrNeedsRebuild", err)
	}
}

func TestSeqlockGenerationParity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	s := mustCreate(t, path, testConfig())
	defer s.Close(true)
	if g := s.Generation(); g%2 != 0 {
		t.Fatalf("fresh store generation %d is odd", g)
	}
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g%2 != 1 {
		t.Fatalf("in-batch generation %d is even", g)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g%2 != 0 {
		t.Fatalf("post-batch generation %d is odd", g)
	}
}

// TestTornHeadWord forges what a lock-free reader can meet in a torn window:
// a resident slot whose lengths word claims more words than its extent's
// class holds, a locator past the directory, and a locator whose class field
// names no class. View.Read must report each as unclean — never a hit, and
// never an index past the words it was handed.
func TestTornHeadWord(t *testing.T) {
	s := NewHeap(testConfig().Slots)
	defer s.Close(false)
	key, val := []byte("torn-key"), []byte("a value of three words...")
	for id := 0; id < 3; id++ {
		put(t, s, string(key), string(val), id)
	}
	loc := func(id int) *atomic.Uint64 { return &s.hdr[slotAt(id)+slotLoc/8] }
	off, class := located(loc(0).Load())
	// Slot 0: the key still matches, the value overruns the class by a word.
	over := uint64(classWords(class)-1-wordsFor(len(key))+1) * 8
	s.dir.Load().words(off, 1)[0].Store(uint64(len(key))<<32 | over)
	// Slot 1: an extent one page past the directory's last.
	loc(1).Store(locator(len(*s.dir.Load())<<pageShift, class))
	// Slot 2: every class bit set.
	loc(2).Store(loc(2).Load() | classMask)

	v := s.View()
	for id := 0; id < 3; id++ {
		out, hit, clean := v.Read(id, key, []byte("dst"))
		if hit || clean || string(out) != "dst" {
			t.Errorf("slot %d: Read = %q, hit %t, clean %t; want dst untouched, a miss, unclean", id, out, hit, clean)
		}
	}
}

func TestSyncEveryOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	cfg.SyncEveryOp = true
	s := mustCreate(t, path, cfg)
	for i := 0; i < 8; i++ {
		put(t, s, string(rune('a'+i)), "v", i)
	}
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Resident() != 8 {
		t.Fatalf("resident = %d, want 8", s2.Resident())
	}
	s2.Close(true)
}

// TestSyncSpan pins the arithmetic behind SyncEveryOp's msync: the dirty
// span's low and high water marks, its reset, the page alignment, and a
// span that reaches past the mapping a growth replaced.
func TestSyncSpan(t *testing.T) {
	var d span
	if d.take() != (span{}) {
		t.Fatal("zero span is not empty")
	}
	d.add(9000, 32)
	d.add(5000, 8)
	d.add(6000, 100)
	if d != (span{5000, 9032}) {
		t.Fatalf("span = %+v, want [5000, 9032)", d)
	}
	if got := d.take(); got != (span{5000, 9032}) || d != (span{}) {
		t.Fatalf("take = %+v, left %+v", got, d)
	}
	for _, c := range []struct{ off, n, size, lo, hi int }{
		{5000, 4032, 16384, 4096, 9032},  // start rounds down to its page
		{8192, 10, 16384, 8192, 8202},    // aligned start stays
		{0, 4096, 16384, 0, 4096},        // the header page
		{9000, 9000, 12288, 8192, 12288}, // end is cut at the mapping
	} {
		if lo, hi := pageSpan(c.off, c.n, c.size, 4096); lo != c.lo || hi != c.hi {
			t.Errorf("pageSpan(%d, %d, %d) = [%d, %d), want [%d, %d)", c.off, c.n, c.size, lo, hi, c.lo, c.hi)
		}
	}

	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	cfg.SyncEveryOp = true
	s := mustCreate(t, path, cfg)
	old := len(s.m)
	fp := hash.Bytes64([]byte("big"))
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetSlot(40, fp, []byte("big"), make([]byte, 2*old)); err != nil {
		t.Fatal(err)
	}
	extent, _ := extentOf(s, 40)
	if want := (span{s.slot(40), int(extent) + 16 + 2*old}); s.dirty != want || s.dirty.hi <= old {
		t.Fatalf("dirty span %+v after growth past a %d-byte mapping, want %+v", s.dirty, old, want)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	if s.dirty != (span{}) {
		t.Fatalf("End left the dirty span at %+v", s.dirty)
	}
	put(t, s, "k", "v", 0)
	if s.dirty != (span{}) {
		t.Fatalf("second End left the dirty span at %+v", s.dirty)
	}
	// A crash now loses nothing that End reported synced, but the session
	// is dirty; a clean close reopens warm.
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close(true)
	if _, v, ok := s2.Lookup(fp); !ok || len(v) != 2*old {
		t.Fatalf("grown entry: %d bytes, %t", len(v), ok)
	}
}

// TestViewsSurviveGrowth pins the reader's side of growth on both backings:
// a View taken before the store grew keeps reading what it could already
// see — nothing moved, nothing was unmapped — reports an entry in a segment
// added since as unreadable (never a wrong value), and a fresh View reads
// everything, small extents and ones big enough for a slab of their own.
func TestViewsSurviveGrowth(t *testing.T) {
	cfg := testConfig()
	for name, open := range map[string]func(t *testing.T) *Store{
		"heap": func(*testing.T) *Store { return NewHeap(cfg.Slots) },
		"file": func(t *testing.T) *Store { return mustCreate(t, filepath.Join(t.TempDir(), "shard.slc"), cfg) },
	} {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			defer s.Close(false)
			val := func(i int) string { return strings.Repeat(string(rune('A'+i%26)), 30+i*i*40) } // to ~160 KiB
			key := func(i int) string { return fmt.Sprintf("grow-%02d", i) }
			read := func(v View, i int) (string, bool, bool) {
				out, hit, clean := v.Read(i, []byte(key(i)), nil)
				return string(out), hit, clean
			}
			put(t, s, key(0), val(0), 0)
			old := s.View()
			segments := func() int { return len(*s.dir.Load()) }
			before := segments()
			for i := 1; i < cfg.Slots; i++ {
				put(t, s, key(i), val(i), i)
			}
			if segments() < before+4 {
				t.Fatalf("directory went from %d to %d pages: the store barely grew", before, segments())
			}
			if got, hit, clean := read(old, 0); !hit || !clean || got != val(0) {
				t.Fatalf("old view lost the entry it could see: hit %t clean %t", hit, clean)
			}
			stale := 0
			for i := 0; i < cfg.Slots; i++ {
				if got, hit, clean := read(s.View(), i); !hit || !clean || got != val(i) {
					t.Fatalf("fresh view, entry %d: hit %t clean %t, %d bytes", i, hit, clean, len(got))
				}
				switch got, hit, clean := read(old, i); {
				case !clean:
					stale++
				case !hit || got != val(i):
					t.Fatalf("old view served entry %d wrong: hit %t, %d bytes", i, hit, len(got))
				}
			}
			if stale == 0 {
				t.Fatal("old view reached every extent: no entry landed in a newer segment")
			}
		})
	}
}
