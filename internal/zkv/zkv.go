// Package zkv is the live serving layer of the reproduction: an embeddable,
// concurrent, sharded in-memory key-value cache whose replacement engine is
// the actual zcache algorithm — H3 way hashing (internal/hash), the
// breadth-first walk-tree candidate expansion and relocation chains of
// internal/cache, and the LRU/bucketed-LRU global ranking of internal/repl.
//
// The store does not fork the eviction core: each shard wraps the same
// cache.Cache controller the simulator's L2 banks use, driving it through
// the slot-returning access paths (Peek/Touch/AccessSlot). The shard's slot
// table (internal/slotstore) is its zcache's tag array — each slot header's
// first word is the tag — and the table applies every change the controller
// reports through cache.SlotObserver, moving an entry's tag with it.
// Replaying a trace through a one-shard store and
// through a simulator-built cache therefore yields bit-identical eviction
// victim sequences — the guarantee the equivalence harness (ReplayEquiv)
// asserts for the internal/workloads suite.
//
// Keys are arbitrary byte strings, folded to 64-bit fingerprints
// (hash.Bytes64) that play the role of line addresses (Line). Stored key
// bytes are verified on every hit, so a fingerprint collision degrades to a
// miss (and at most replaces the aliased entry on Set), never to a wrong
// value.
// Get/Set/Delete are safe for concurrent use; striping is per-shard
// mutexes, with the shard count sized off GOMAXPROCS by default.
package zkv

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"zcache/internal/cache"
	"zcache/internal/hash"
	"zcache/internal/repl"
	"zcache/internal/slotstore"
	"zcache/internal/zkvproto"
)

// Config sizes a Store. The zero value is not valid; Open fills defaults
// for zero fields.
type Config struct {
	// Shards is the number of independent shards (power of two). 0 sizes
	// it off GOMAXPROCS: the next power of two at or above it, so mutex
	// striping matches the machine's parallelism.
	Shards int
	// Ways is the zcache way count per shard (default 4, the paper's W).
	Ways int
	// Rows is the row count per way per shard (power of two, default 1024).
	// Shard capacity is Ways*Rows entries.
	Rows uint64
	// Levels is the replacement-walk depth (default 2: the paper's Z4/16).
	Levels int
	// Policy is the replacement ranking (default: the zero value, the
	// paper's bucketed LRU). Every kind but OPT, which needs the future of
	// the key stream, is accepted. Its number is stamped into shard files,
	// so a store reopened under another policy starts cold.
	Policy repl.Kind
	// Seed derives every shard's H3 way hashes and the shard-selection
	// salt; identical seeds build identical stores.
	Seed uint64
	// MaxValBytes bounds a value's size (default 1MiB); a key's is the
	// wire's zkvproto.MaxKeyLen (64KiB-1). Oversized Sets fail; oversized
	// Gets/Deletes miss.
	MaxValBytes int

	// PersistDir, when non-empty, keeps every shard's cells in an mmap'd
	// slotstore file under this directory and warm-restores from valid
	// images at Open (see internal/slotstore). Empty: the Go heap.
	PersistDir string
	// PersistSync msyncs each mutation's dirty range before the operation
	// returns (crash-bounded loss, large throughput cost). Off, durability
	// is only guaranteed at Close; the crash-safety contract — a torn image
	// is never served — holds either way.
	PersistSync bool
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Shards == 0 {
		n := runtime.GOMAXPROCS(0)
		c.Shards = 1
		for c.Shards < n {
			c.Shards <<= 1
		}
	}
	if c.Ways == 0 {
		c.Ways = 4
	}
	if c.Rows == 0 {
		c.Rows = 1024
	}
	c.Levels = c.shardSpec(0).WalkLevels() // 2 when unset, as every zcache's
	if c.MaxValBytes == 0 {
		c.MaxValBytes = 1 << 20
	}
	return c
}

// Store is a sharded zcache-backed key-value cache.
type Store struct {
	cfg       Config
	shards    []*shard
	mask      uint64
	shardSalt uint64

	// persist is the open-time outcome (immutable after Open; persist.go).
	persist PersistReport
}

// Open builds a store from cfg (zero fields defaulted).
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("zkv: shard count must be a power of two, got %d", cfg.Shards)
	}
	if cfg.MaxValBytes < 1 || uint64(cfg.MaxValBytes) > math.MaxUint32 {
		return nil, fmt.Errorf("zkv: max value bytes must be in [1, 2^32), got %d", cfg.MaxValBytes)
	}
	if cfg.Policy == repl.KindOPT {
		return nil, fmt.Errorf("zkv: policy opt needs the future of the key stream")
	}
	s := &Store{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		mask:      uint64(cfg.Shards - 1),
		shardSalt: hash.Mix64(cfg.Seed ^ 0x5bd1e9955bd1e995),
	}
	if cfg.PersistDir != "" {
		if err := s.openPersist(); err != nil {
			return nil, err
		}
	}
	for i := range s.shards {
		var sh *shard
		var err error
		if cfg.PersistDir != "" {
			sh, err = s.attachPersist(i)
		} else {
			sh, err = newShard(cfg, i, slotstore.NewHeap(cfg.Ways*int(cfg.Rows)))
		}
		if err != nil {
			s.shards = s.shards[:i]
			s.Close()
			return nil, err
		}
		s.shards[i] = sh
	}
	return s, nil
}

// Config returns the resolved configuration.
func (s *Store) Config() Config { return s.cfg }

// Capacity returns the total entry capacity across shards.
func (s *Store) Capacity() int { return s.cfg.Shards * s.cfg.Ways * int(s.cfg.Rows) }

// Line returns the line address the store files key under, the tag its slot
// header holds: its fingerprint, except that the one fingerprint equal to
// cache.EmptyLine — the tag of an empty slot — shares its neighbour's line
// (slotstore.Line). The stored key tells the two apart, so they alias like
// any fingerprint collision: a miss, never a wrong value. A reference engine
// (NewRefCache) is fed these lines.
func Line(key []byte) uint64 { return slotstore.Line(hash.Bytes64(key)) }

// shardFor routes a fingerprint to its shard. The salt decorrelates shard
// selection from the fingerprint bits the per-way H3 functions consume, so
// sharding does not bias row indexing within a shard.
func (s *Store) shardFor(fp uint64) *shard {
	return s.shards[hash.Mix64(fp^s.shardSalt)&s.mask]
}

// Get appends the value stored under key to dst and returns it, with
// whether the key was resident. A hit touches the replacement ranking
// exactly like a read hit in the simulator (the touch is deferred through
// the shard's ring; see seqlock.go). GETs do not take the shard mutex:
// they validate against the cell store's generation and retry if a
// mutation raced, so readers never wait behind a relocation chain. Steady
// state allocates nothing when dst has capacity. A closed store misses.
func (s *Store) Get(key, dst []byte) ([]byte, bool) {
	if len(key) == 0 || len(key) > zkvproto.MaxKeyLen {
		return dst, false
	}
	fp := hash.Bytes64(key)
	return s.shardFor(fp).getLockFree(fp, key, dst)
}

// ErrClosed is what a mutation of a closed store returns.
var ErrClosed = errors.New("zkv: store is closed")

// Set stores val under key, evicting (and possibly relocating) resident
// entries through the zcache replacement walk when the shard is full at
// key's slots. Overwrites touch the ranking like write hits; inserts run
// the same walk+install the simulator's miss path runs.
func (s *Store) Set(key, val []byte) error {
	if len(key) == 0 || len(key) > zkvproto.MaxKeyLen {
		return fmt.Errorf("zkv: key length %d outside [1, %d]", len(key), zkvproto.MaxKeyLen)
	}
	if len(val) > s.cfg.MaxValBytes {
		return fmt.Errorf("zkv: value length %d exceeds %d", len(val), s.cfg.MaxValBytes)
	}
	fp := hash.Bytes64(key)
	sh := s.shardFor(fp)
	if !sh.lock() {
		return ErrClosed
	}
	sh.set(fp, key, val)
	sh.mu.Unlock()
	return nil
}

// Delete removes key if resident, reporting whether it was.
func (s *Store) Delete(key []byte) bool {
	if len(key) == 0 || len(key) > zkvproto.MaxKeyLen {
		return false
	}
	fp := hash.Bytes64(key)
	sh := s.shardFor(fp)
	if !sh.lock() {
		return false
	}
	ok := sh.del(fp, key)
	sh.mu.Unlock()
	return ok
}

// Len returns the number of resident entries. Like Stats it takes no lock.
func (s *Store) Len() int { return s.Stats().Resident }

// SetEvictHook attaches fn to every shard's demand evictions (the evicted
// entry's fingerprint). The equivalence harnesses — zkv's own and the
// clustered one in internal/zcluster — use it to capture victim sequences;
// serving paths leave it nil.
func (s *Store) SetEvictHook(fn func(shard int, line uint64)) {
	for _, sh := range s.shards {
		sh.evictHook = fn
	}
}

// WalkHistBuckets is the size of the relocation-chain-length histogram in
// Stats: bucket i counts installs whose victim sat i relocations deep;
// the last bucket aggregates everything at or beyond it.
const WalkHistBuckets = 8

// Stats is a point-in-time aggregate across shards.
type Stats struct {
	Shards   int
	Capacity int
	Resident int

	Gets      uint64
	GetHits   uint64
	GetMisses uint64
	// GetLocked counts GETs that exhausted their seqlock retries and fell
	// back to the shard mutex (not hits that merely deferred a touch).
	GetLocked  uint64
	Sets       uint64
	Inserts    uint64
	Overwrites uint64
	Dels       uint64
	DelHits    uint64

	// Evictions counts demand evictions (capacity pressure), not deletes.
	Evictions uint64
	// Relocations counts blocks moved by install chains (array counter).
	Relocations uint64
	// Collisions counts fingerprint matches whose stored key bytes
	// differed from the probed key.
	Collisions uint64
	// WalkDepth[i] counts installs whose relocation chain was i moves
	// long (i = victim walk level - 1); the last bucket is ≥.
	WalkDepth [WalkHistBuckets]uint64
}

// Stats sums every shard's counters without taking a lock: a scrape never
// stalls a writer, and sees each counter whole though not all at one instant.
func (s *Store) Stats() Stats {
	out := Stats{Shards: s.cfg.Shards, Capacity: s.Capacity()}
	for _, sh := range s.shards {
		out.Resident += sh.cells.Resident()
		out.Gets += sh.gets.Load()
		out.GetHits += sh.getHits.Load()
		out.GetMisses += sh.getMisses.Load()
		out.GetLocked += sh.getLocked.Load()
		out.Overwrites += sh.overwrites.Load()
		out.Dels += sh.dels.Load()
		out.DelHits += sh.delHits.Load()
		out.Evictions += sh.evictions.Load()
		out.Collisions += sh.collisions.Load()
		out.Relocations += sh.relocations.Load()
		out.Sets += sh.aliased.Load()
		for i := range sh.walkHist {
			out.WalkDepth[i] += sh.walkHist[i].Load()
			out.Inserts += sh.walkHist[i].Load()
		}
	}
	// Every Set is an insert (one walkHist bucket), an overwrite or an alias
	// replaced: the totals need no counters of their own on the SET path.
	out.Sets += out.Inserts + out.Overwrites
	return out
}

// shard is one independently locked zcache instance over its slot table.
type shard struct {
	mu  sync.Mutex
	c   *cache.Cache
	arr *cache.ZCache

	// cells holds every entry once, indexed by repl.BlockID, on the Go heap
	// or in the shard's file (persist.go); its headers' first words are
	// arr's tags, and its generation word is the shard's seqlock. touches is
	// the deferred read-hit ring, and ix — the array's own indexer — lets
	// readers hash fingerprints to slots (seqlock.go).
	cells   *slotstore.Store
	touches touchRing
	ix      *hash.Indexer
	rowsPer uint64

	// Lock-free readers Add to the first two rows; the mutex holder is the
	// only writer of the rest and bumps them with a load and a store. Stats
	// reads them all without the mutex. aliased: Sets that replaced an alias.
	gets, getHits, getMisses atomic.Uint64
	collisions, getLocked    atomic.Uint64
	overwrites, aliased      atomic.Uint64
	dels, delHits            atomic.Uint64
	evictions, relocations   atomic.Uint64
	walkHist                 [WalkHistBuckets]atomic.Uint64
	movesThisInstall         int
	deleting                 bool
	idx                      int
	evictHook                func(shard int, line uint64)
}

// bump adds n to a counter whose only writer is the caller.
func bump(c *atomic.Uint64, n int) { c.Store(c.Load() + uint64(n)) }

// shardSpec returns shard i's array: bank i of the simulator's zcache L2 at
// the store's geometry (sim.Config.BankSpec), so a one-shard store and a
// one-bank simulator L2 built from the same seed index identically.
func (c Config) shardSpec(i int) cache.Spec {
	return cache.Spec{Org: cache.OrgZCache, Ways: c.Ways, Rows: c.Rows, Levels: c.Levels, Seed: c.Seed}.Bank(i)
}

// newShard builds shard i of a store over cells, a slot table of its
// geometry: a ZCache array whose tags are the table's, and a controller with
// zero line bits, so key fingerprints are the line addresses.
func newShard(cfg Config, i int, cells *slotstore.Store) (*shard, error) {
	arr, err := cfg.shardSpec(i).BuildOver(cells.Tags())
	if err != nil {
		return nil, err
	}
	c, err := newController(cfg, i, arr)
	if err != nil {
		return nil, err
	}
	sh := &shard{
		c:       c,
		arr:     arr,
		cells:   cells,
		ix:      arr.Indexer(),
		rowsPer: cfg.Rows,
		idx:     i,
	}
	sh.touches.init(touchRingSize)
	c.SetSlotObserver(sh)
	return sh, nil
}

// SlotEvicted implements cache.SlotObserver: a block left the cache, so its
// slot's tag goes Empty and its cell is dead (the extent stays for reuse by
// the next tenant).
func (sh *shard) SlotEvicted(id repl.BlockID, line uint64, dirty bool) {
	sh.cells.ClearSlot(int(id))
	if sh.deleting {
		return
	}
	bump(&sh.evictions, 1)
	if sh.evictHook != nil {
		sh.evictHook(sh.idx, line)
	}
}

// SlotMoved implements cache.SlotObserver: a relocation slid a block into
// the vacated destination slot; its header, the tag with it, follows.
func (sh *shard) SlotMoved(from, to repl.BlockID) {
	sh.cells.MoveSlot(int(from), int(to))
	sh.movesThisInstall++
}

// get is the locked Get body (the seqlock fallback); the value is appended
// to dst.
func (sh *shard) get(fp uint64, key, dst []byte) ([]byte, bool) {
	sh.gets.Add(1)
	id, ok := sh.c.Peek(slotstore.Line(fp))
	if !ok {
		sh.getMisses.Add(1)
		return dst, false
	}
	dst, hit, _ := sh.cells.View().Read(int(id), key, dst)
	if !hit {
		sh.collisions.Add(1)
		sh.getMisses.Add(1)
		return dst, false
	}
	sh.c.Touch(id)
	sh.getHits.Add(1)
	return dst, true
}

// set is the locked Set body: the eviction/relocation events AccessSlot fires
// through the observer plus the cell write, which also writes the tag of a
// missing line into the slot it was given, in one batch of the cell store.
// Its errors are persistence faults it has answered by detaching from its
// file, which Persist reports.
func (sh *shard) set(fp uint64, key, val []byte) {
	sh.movesThisInstall = 0
	sh.cells.Begin()
	id, hit := sh.c.AccessSlot(slotstore.Line(fp), true)
	if hit {
		if sh.cells.Holds(int(id), key) {
			bump(&sh.overwrites, 1)
		} else {
			// Fingerprint alias: a different key owns this tag. A
			// cache may replace it — the verified-get contract keeps
			// the alias from ever serving the wrong value.
			sh.collisions.Add(1)
			bump(&sh.aliased, 1)
		}
	} else {
		bump(&sh.walkHist[min(sh.movesThisInstall, WalkHistBuckets-1)], 1)
		if sh.movesThisInstall > 0 {
			bump(&sh.relocations, sh.movesThisInstall)
		}
	}
	sh.cells.SetSlot(int(id), fp, key, val)
	sh.cells.End()
}

// del is the locked Delete body; a miss leaves a clean file untouched.
func (sh *shard) del(fp uint64, key []byte) bool {
	bump(&sh.dels, 1)
	line := slotstore.Line(fp)
	id, ok := sh.c.Peek(line)
	if !ok || !sh.cells.Holds(int(id), key) {
		return false
	}
	sh.invalidate(line)
	bump(&sh.delHits, 1)
	return true
}

// invalidate drops lines from the shard in one batch of the cell store,
// bypassing the eviction counters and the evict hook.
func (sh *shard) invalidate(lines ...uint64) {
	sh.cells.Begin()
	sh.deleting = true
	for _, line := range lines {
		sh.c.Invalidate(line)
	}
	sh.deleting = false
	sh.cells.End()
}
