package zkv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"
	"testing"

	"zcache/internal/failpoint"
	"zcache/internal/repl"
	"zcache/internal/slotstore"
)

func persistConfig(dir string) Config {
	return Config{
		Shards: 2, Ways: 4, Rows: 64, Levels: 2, Seed: 99,
		PersistDir: dir,
	}
}

func skipNoPersist(t testing.TB) {
	if !slotstore.Supported() {
		t.Skip("persistence unsupported on this platform")
	}
}

func fillKeys(t testing.TB, s *Store, n int) {
	t.Helper()
	var key [8]byte
	val := make([]byte, 32)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i))
		binary.BigEndian.PutUint64(val, uint64(i)*3)
		if err := s.Set(key[:], val); err != nil {
			t.Fatal(err)
		}
	}
}

// verifyKeys asserts the correctness contract over keys [0, n): every Get
// is either a miss or the exact expected value — never a wrong value. It
// returns the hit count.
func verifyKeys(t testing.TB, s *Store, n int) int {
	t.Helper()
	var key [8]byte
	want := make([]byte, 32)
	hits := 0
	dst := make([]byte, 0, 64)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i))
		var ok bool
		dst, ok = s.Get(key[:], dst[:0])
		if !ok {
			continue
		}
		hits++
		binary.BigEndian.PutUint64(want, uint64(i)*3)
		if string(dst) != string(want) {
			t.Fatalf("key %d served wrong value %x", i, dst)
		}
	}
	return hits
}

// growAfterFault keeps writing to a store whose shard files have detached:
// values from a few bytes to past a directory page, on new keys and over old
// ones, each read back at once and all of them again at the end.
func growAfterFault(t *testing.T, s *Store) {
	t.Helper()
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 40+i*i*90) }
	const n = 30 // up to ~76 KiB
	for round := 0; round < 2; round++ {
		for i := 0; i < n; i++ {
			key := []byte(fmt.Sprintf("after-fault-%02d", (i+round*7)%n))
			if err := s.Set(key, val(i)); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get(key, nil); !ok || !bytes.Equal(got, val(i)) {
				t.Fatalf("round %d: %d-byte value written after the fault reads back as %d bytes, hit %t", round, len(val(i)), len(got), ok)
			}
		}
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("after-fault-%02d", (i+7)%n))
		if got, ok := s.Get(key, nil); !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("%d-byte value written after the fault: %d bytes, hit %t at the end", len(val(i)), len(got), ok)
		}
	}
}

// abandon simulates kill -9: every shard's file is dropped without the
// clean mark, exactly the on-disk state a crashed process leaves.
func abandon(s *Store) {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.cells.Close(false)
		sh.mu.Unlock()
	}
}

func TestPersistWarmRestart(t *testing.T) {
	skipNoPersist(t)
	dir := t.TempDir()
	cfg := persistConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Capacity() / 2 // no eviction pressure
	fillKeys(t, s, n)
	pre := verifyKeys(t, s, n)
	resident := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.Persist()
	if rep.WarmShards != cfg.Shards || rep.ColdShards != 0 {
		t.Fatalf("warm=%d cold=%d, want all %d warm", rep.WarmShards, rep.ColdShards, cfg.Shards)
	}
	if rep.WarmEntries != resident {
		t.Fatalf("restored %d entries, had %d resident", rep.WarmEntries, resident)
	}
	post := verifyKeys(t, s2, n)
	if post < pre*9/10 {
		t.Fatalf("warm hits %d < 90%% of pre-restart %d", post, pre)
	}
	if post != pre {
		t.Logf("note: %d pre vs %d post hits", pre, post)
	}
}

// TestPersistWarmRestartUnderEviction restarts a store that ran well past
// capacity, so the surviving image reflects evictions and relocation
// chains. Every warm-served key must still verify.
func TestPersistWarmRestartUnderEviction(t *testing.T) {
	skipNoPersist(t)
	dir := t.TempDir()
	cfg := persistConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Capacity() * 3
	fillKeys(t, s, n)
	resident := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != resident {
		t.Fatalf("restored %d entries, had %d resident", got, resident)
	}
	hits := verifyKeys(t, s2, n)
	if hits < resident*9/10 {
		t.Fatalf("only %d of %d resident entries hit after restart", hits, resident)
	}
}

func TestPersistCrashNeedsRebuild(t *testing.T) {
	skipNoPersist(t)
	dir := t.TempDir()
	cfg := persistConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := s.Capacity() / 2
	fillKeys(t, s, n)
	abandon(s)

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.Persist()
	if rep.WarmShards != 0 || rep.Rebuilds != cfg.Shards {
		t.Fatalf("after crash: warm=%d rebuilds=%d, want 0 warm / %d rebuilds",
			rep.WarmShards, rep.Rebuilds, cfg.Shards)
	}
	if hits := verifyKeys(t, s2, n); hits != 0 {
		t.Fatalf("%d hits served from a crashed image", hits)
	}
	// The rebuilt store works and the next cycle is warm again.
	fillKeys(t, s2, n)
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if rep := s3.Persist(); rep.WarmShards != cfg.Shards {
		t.Fatalf("rebuilt cycle reopened %d/%d shards warm", rep.WarmShards, cfg.Shards)
	}
}

func TestPersistDeleteSurvivesRestart(t *testing.T) {
	skipNoPersist(t)
	dir := t.TempDir()
	cfg := persistConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillKeys(t, s, 10)
	var key [8]byte
	binary.BigEndian.PutUint64(key[:], 3)
	if !s.Delete(key[:]) {
		t.Fatal("delete missed")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.Get(key[:], nil); ok {
		t.Fatal("deleted key resurrected by warm restart")
	}
	if hits := verifyKeys(t, s2, 10); hits != 9 {
		t.Fatalf("%d survivors, want 9", hits)
	}
}

// TestPersistMaxValueRoundTrip: the shard file holds every entry the store
// accepts. A MaxValBytes value — which grows the file many times over — and
// a small neighbour both come back after a restart, byte for byte.
func TestPersistMaxValueRoundTrip(t *testing.T) {
	skipNoPersist(t)
	dir := t.TempDir()
	cfg := persistConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, s.Config().MaxValBytes)
	for i := range big {
		big[i] = byte(i * 7)
	}
	if err := s.Set([]byte("big-key"), big); err != nil {
		t.Fatal(err)
	}
	fillKeys(t, s, 10)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep := s2.Persist(); rep.WarmShards != cfg.Shards || rep.WarmEntries != 11 {
		t.Fatalf("warm=%d entries=%d, want %d shards / 11 entries", rep.WarmShards, rep.WarmEntries, cfg.Shards)
	}
	got, ok := s2.Get([]byte("big-key"), nil)
	if !ok || !bytes.Equal(got, big) {
		t.Fatalf("MaxValBytes value after restart: hit=%t, %d bytes", ok, len(got))
	}
	if hits := verifyKeys(t, s2, 10); hits != 10 {
		t.Fatalf("%d of 10 small neighbours survived", hits)
	}
}

// TestPersistGrowFaultDetaches: a shard file that cannot grow is a
// persistence fault like any other — the shard detaches and keeps serving
// and writing in memory (the mapping it had, Go-heap segments from here on),
// and the abandoned dirty file rebuilds on the next boot.
func TestPersistGrowFaultDetaches(t *testing.T) {
	skipNoPersist(t)
	defer failpoint.Reset()
	dir := t.TempDir()
	cfg := persistConfig(dir)
	cfg.Shards = 1
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillKeys(t, s, 16)
	failpoint.Enable("slotstore/grow", failpoint.Error, 1, 0)
	big := make([]byte, 1<<16) // past the fresh file's heap
	if err := s.Set([]byte("big-key"), big); err != nil {
		t.Fatal(err)
	}
	failpoint.Reset()
	if rep := s.Persist(); rep.Detached != 1 {
		t.Fatalf("detached = %d, want 1", rep.Detached)
	}
	if got, ok := s.Get([]byte("big-key"), nil); !ok || len(got) != len(big) {
		t.Fatal("entry written through the failed growth is not served")
	}
	if hits := verifyKeys(t, s, 16); hits != 16 {
		t.Fatalf("memory hits = %d, want 16", hits)
	}
	growAfterFault(t, s)
	if got, ok := s.Get([]byte("big-key"), nil); !ok || !bytes.Equal(got, big) {
		t.Fatal("later writes disturbed the entry written through the failed growth")
	}
	if hits := verifyKeys(t, s, 16); hits != 16 {
		t.Fatalf("memory hits = %d after more writes, want 16", hits)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep := s2.Persist(); rep.WarmShards != 0 || rep.Rebuilds != 1 {
		t.Fatalf("warm=%d rebuilds=%d after a failed growth, want 0 / 1", rep.WarmShards, rep.Rebuilds)
	}
}

// TestPersistDetachOnFault: a persistence I/O fault mid-flight detaches the
// shard from its file — the store keeps serving and writing in memory — and
// the abandoned dirty file forces a rebuild on the next boot instead of a
// torn warm image.
func TestPersistDetachOnFault(t *testing.T) {
	skipNoPersist(t)
	defer failpoint.Reset()
	dir := t.TempDir()
	cfg := persistConfig(dir)
	cfg.PersistSync = true // make every End hit the msync failpoint
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillKeys(t, s, 32)
	failpoint.Enable("slotstore/msync", failpoint.Error, 1, 0)
	fillKeys(t, s, 64)
	failpoint.Reset()
	rep := s.Persist()
	if rep.Detached != cfg.Shards {
		t.Fatalf("detached = %d, want %d", rep.Detached, cfg.Shards)
	}
	// Memory serving is unaffected.
	if hits := verifyKeys(t, s, 64); hits != 64 {
		t.Fatalf("memory hits = %d, want 64", hits)
	}
	growAfterFault(t, s)
	if hits := verifyKeys(t, s, 64); hits != 64 {
		t.Fatalf("memory hits = %d after more writes, want 64", hits)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if rep := s2.Persist(); rep.WarmShards != 0 {
		t.Fatalf("%d shards reopened warm from detached dirty files", rep.WarmShards)
	}
	if hits := verifyKeys(t, s2, 64); hits != 0 {
		t.Fatalf("%d hits served from abandoned images", hits)
	}
}

// TestPersistShardFilesAreIndependent: one corrupted shard file rebuilds
// cold while the others reopen warm.
func TestPersistShardFilesAreIndependent(t *testing.T) {
	skipNoPersist(t)
	dir := t.TempDir()
	cfg := persistConfig(dir)
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillKeys(t, s, s.Capacity()/2)
	// Crash shard 0 only; close shard 1 cleanly.
	s.shards[0].cells.Close(false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	rep := s2.Persist()
	if rep.WarmShards != 1 || rep.ColdShards != 1 || rep.Rebuilds != 1 {
		t.Fatalf("warm=%d cold=%d rebuilds=%d, want 1/1/1",
			rep.WarmShards, rep.ColdShards, rep.Rebuilds)
	}
	verifyKeys(t, s2, s2.Capacity()/2)
}

func persistBenchStore(b *testing.B) (*Store, int) {
	b.Helper()
	skipNoPersist(b)
	s, err := Open(Config{Shards: 4, Ways: 4, Rows: 1024, Levels: 2, Seed: 17,
		PersistDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	n := s.Capacity() / 2
	var key [8]byte
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i))
		if err := s.Set(key[:], val); err != nil {
			b.Fatal(err)
		}
	}
	return s, n
}

// BenchmarkZKVGetPersist and BenchmarkZKVSetPersist time the hot path on
// mapped cells: straight into the mmap, no buffers, no syscalls (PersistSync
// off), 0 allocs/op (TestSetAllocs and TestGetAllocs gate that in tier 1).
func BenchmarkZKVGetPersist(b *testing.B) {
	s, n := persistBenchStore(b)
	var key [8]byte
	dst := make([]byte, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i%n))
		dst, _ = s.Get(key[:], dst[:0])
	}
	_ = dst
}

func BenchmarkZKVSetPersist(b *testing.B) {
	s, n := persistBenchStore(b)
	var key [8]byte
	val := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binary.BigEndian.PutUint64(key[:], uint64(i%(2*n)))
		if err := s.Set(key[:], val); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPolicyStamp pins the policy numbers shard files carry: Config{} stamps
// 0 and lru-full stamps 1, as every earlier build did, so a reordering of
// repl.Kind cannot silently cold-open deployed shards. OPT, which needs the
// future of the key stream, is refused at Open.
func TestPolicyStamp(t *testing.T) {
	skipNoPersist(t)
	for _, c := range []struct {
		name  string
		stamp uint32
	}{{"", 0}, {"lru-full", 1}} {
		cfg := Config{Shards: 1, Ways: 4, Rows: 64, Levels: 2, Seed: 7, PersistDir: t.TempDir()}
		if c.name != "" {
			pol, err := repl.ParseKind(c.name)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Policy = pol
		}
		s, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		fillKeys(t, s, 32)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		pcfg := slotstore.Config{Slots: 4 * 64, Seed: cfg.shardSpec(0).Seed, Ways: 4, Levels: 2, Rows: 64,
			Policy: c.stamp, Shard: 0, ShardCount: 1}
		path := filepath.Join(cfg.PersistDir, "shard-000.slc")
		cells, err := slotstore.Open(path, pcfg)
		if err != nil {
			t.Fatalf("policy %q: shard file does not carry stamp %d: %v", c.name, c.stamp, err)
		}
		cells.Close(true)
		pcfg.Policy = 1 - c.stamp
		if cells, err := slotstore.Open(path, pcfg); err == nil {
			cells.Close(true)
			t.Fatalf("policy %q: shard file also opens under stamp %d", c.name, pcfg.Policy)
		}
	}
	if s, err := Open(Config{Policy: repl.KindOPT}); err == nil {
		s.Close()
		t.Fatal("Open accepted opt")
	}
}
