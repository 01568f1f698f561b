// Package zkv is the live serving layer of the reproduction: an embeddable,
// concurrent, sharded in-memory key-value cache whose replacement engine is
// the actual zcache algorithm — H3 way hashing (internal/hash), the
// breadth-first walk-tree candidate expansion and relocation chains of
// internal/cache, and the LRU/bucketed-LRU global ranking of internal/repl.
//
// The store does not fork the eviction core: each shard wraps the same
// cache.Cache controller the simulator's L2 banks use, driving it through
// the slot-returning access paths (Peek/Touch/AccessSlot) and keeping one
// key/value cell per slot (seqlock.go) aligned with the tag array via
// cache.SlotObserver. Replaying a trace through a one-shard store and
// through a simulator-built cache therefore yields bit-identical eviction
// victim sequences — the guarantee the equivalence harness (ReplayEquiv)
// asserts for the internal/workloads suite.
//
// Keys are arbitrary byte strings, folded to 64-bit fingerprints
// (hash.Bytes64) that play the role of line addresses. Stored key bytes are
// verified on every hit, so a fingerprint collision degrades to a miss (and
// at most replaces the aliased entry on Set), never to a wrong value.
// Get/Set/Delete are safe for concurrent use; striping is per-shard
// mutexes, with the shard count sized off GOMAXPROCS by default.
package zkv

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"zcache/internal/cache"
	"zcache/internal/hash"
	"zcache/internal/repl"
	"zcache/internal/slotstore"
)

// Policy selects the replacement ranking a store's shards use. Only the
// LRU variants are offered: they are the paper's evaluated policies and the
// ones the simulator equivalence guarantee covers.
type Policy int

const (
	// PolicyBucketedLRU is the paper's area-efficient LRU (§III-E): 8-bit
	// wrapped timestamps, counter increment every 5% of the shard size.
	PolicyBucketedLRU Policy = iota
	// PolicyFullLRU is full-timestamp LRU.
	PolicyFullLRU
)

// String names the policy as the CLI flags spell it.
func (p Policy) String() string {
	switch p {
	case PolicyBucketedLRU:
		return "lru"
	case PolicyFullLRU:
		return "lru-full"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy resolves the CLI spelling of a policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "lru":
		return PolicyBucketedLRU, nil
	case "lru-full":
		return PolicyFullLRU, nil
	default:
		return 0, fmt.Errorf("zkv: unknown policy %q (want lru or lru-full)", s)
	}
}

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
	// Policy is the replacement ranking (default bucketed LRU).
	Policy Policy
	// Seed derives every shard's H3 way hashes and the shard-selection
	// salt; identical seeds build identical stores.
	Seed uint64
	// MaxKeyBytes and MaxValBytes bound entry sizes (defaults 64KiB-1 and
	// 1MiB). Oversized Sets fail; oversized Gets/Deletes miss.
	MaxKeyBytes int
	MaxValBytes int

	// PersistDir, when non-empty, mirrors every shard into an mmap'd
	// slotstore file under this directory and warm-restores from valid
	// images at Open (see internal/slotstore). Empty disables persistence.
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
	if c.Levels == 0 {
		c.Levels = 2
	}
	if c.MaxKeyBytes == 0 {
		c.MaxKeyBytes = 1<<16 - 1
	}
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

	// Persistence open-time outcome (immutable after Open; see persist.go).
	warmShards  int
	coldShards  int
	rebuilds    int
	warmEntries int
}

// Open builds a store from cfg (zero fields defaulted).
func Open(cfg Config) (*Store, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 || cfg.Shards&(cfg.Shards-1) != 0 {
		return nil, fmt.Errorf("zkv: shard count must be a power of two, got %d", cfg.Shards)
	}
	if cfg.MaxKeyBytes < 1 || cfg.MaxKeyBytes > 1<<16-1 {
		return nil, fmt.Errorf("zkv: max key bytes must be in [1, 65535], got %d", cfg.MaxKeyBytes)
	}
	if cfg.MaxValBytes < 1 {
		return nil, fmt.Errorf("zkv: max value bytes must be positive, got %d", cfg.MaxValBytes)
	}
	s := &Store{
		cfg:       cfg,
		shards:    make([]*shard, cfg.Shards),
		mask:      uint64(cfg.Shards - 1),
		shardSalt: hash.Mix64(cfg.Seed ^ 0x5bd1e9955bd1e995),
	}
	for i := range s.shards {
		sh, err := newShard(cfg, i)
		if err != nil {
			return nil, err
		}
		s.shards[i] = sh
	}
	if cfg.PersistDir != "" {
		if err := s.openPersist(); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Config returns the resolved configuration.
func (s *Store) Config() Config { return s.cfg }

// Capacity returns the total entry capacity across shards.
func (s *Store) Capacity() int { return s.cfg.Shards * s.cfg.Ways * int(s.cfg.Rows) }

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
// they validate against the shard's sequence counter and retry if a
// mutation raced, so readers never wait behind a relocation chain. Steady
// state allocates nothing when dst has capacity.
func (s *Store) Get(key, dst []byte) ([]byte, bool) {
	if len(key) == 0 || len(key) > s.cfg.MaxKeyBytes {
		return dst, false
	}
	fp := hash.Bytes64(key)
	return s.shardFor(fp).getLockFree(fp, key, dst)
}

// Set stores val under key, evicting (and possibly relocating) resident
// entries through the zcache replacement walk when the shard is full at
// key's slots. Overwrites touch the ranking like write hits; inserts run
// the same walk+install the simulator's miss path runs.
func (s *Store) Set(key, val []byte) error {
	if len(key) == 0 || len(key) > s.cfg.MaxKeyBytes {
		return fmt.Errorf("zkv: key length %d outside [1, %d]", len(key), s.cfg.MaxKeyBytes)
	}
	if len(val) > s.cfg.MaxValBytes {
		return fmt.Errorf("zkv: value length %d exceeds %d", len(val), s.cfg.MaxValBytes)
	}
	fp := hash.Bytes64(key)
	sh := s.shardFor(fp)
	sh.mu.Lock()
	sh.drainTouches()
	sh.seq.Add(1)
	sh.set(fp, key, val)
	sh.seq.Add(1)
	sh.mu.Unlock()
	return nil
}

// Delete removes key if resident, reporting whether it was.
func (s *Store) Delete(key []byte) bool {
	if len(key) == 0 || len(key) > s.cfg.MaxKeyBytes {
		return false
	}
	fp := hash.Bytes64(key)
	sh := s.shardFor(fp)
	sh.mu.Lock()
	sh.drainTouches()
	sh.seq.Add(1)
	ok := sh.del(fp, key)
	sh.seq.Add(1)
	sh.mu.Unlock()
	return ok
}

// Len returns the number of resident entries.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.resident
		sh.mu.Unlock()
	}
	return n
}

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

// Stats snapshots and sums every shard's counters.
func (s *Store) Stats() Stats {
	out := Stats{Shards: s.cfg.Shards, Capacity: s.Capacity()}
	for _, sh := range s.shards {
		sh.mu.Lock()
		out.Resident += sh.resident
		out.Gets += sh.gets.Load()
		out.GetHits += sh.getHits.Load()
		out.GetMisses += sh.getMisses.Load()
		out.GetLocked += sh.getLocked.Load()
		out.Sets += sh.sets
		out.Inserts += sh.inserts
		out.Overwrites += sh.overwrites
		out.Dels += sh.dels
		out.DelHits += sh.delHits
		out.Evictions += sh.evictions
		out.Collisions += sh.collisions.Load()
		out.Relocations += sh.arr.Counters().Relocations
		for i, v := range sh.walkHist {
			out.WalkDepth[i] += v
		}
		sh.mu.Unlock()
	}
	return out
}

// shard is one independently locked zcache instance with one key/value cell
// per slot.
type shard struct {
	mu  sync.Mutex
	c   *cache.Cache
	arr *cache.ZCache

	// The cell store and its lock-free read state (see seqlock.go): rcells
	// holds every entry once, indexed by repl.BlockID like the tag array;
	// seq is the shard seqlock (odd while a mutation is in flight), touches
	// the deferred read-hit ring, and ws4/rfns/rowsPer let readers hash
	// fingerprints to slots without touching the tag array.
	seq     atomic.Uint64
	rcells  []rcell
	touches touchRing
	ws4     *hash.WaySet4
	rfns    []hash.Func
	rowsPer uint64

	resident int

	// Counters written by lock-free readers are atomic; the rest are
	// writer-only under mu.
	gets, getHits, getMisses  atomic.Uint64
	collisions, getLocked     atomic.Uint64
	sets, inserts, overwrites uint64
	dels, delHits             uint64
	evictions                 uint64
	walkHist                  [WalkHistBuckets]uint64
	movesThisInstall          int
	deleting                  bool
	idx                       int
	evictHook                 func(shard int, line uint64)

	// ps mirrors this shard's slot cells on disk (nil when persistence is
	// off or was detached after a fault); see persist.go.
	ps         *slotstore.Store
	psDetached bool
}

// shardSeed derives shard i's H3 seed from the store seed, mirroring the
// simulator's per-bank derivation so a one-shard store and a one-bank
// simulator L2 built from the same seed index identically.
func shardSeed(storeSeed uint64, i int) uint64 {
	return hash.Mix64(storeSeed ^ uint64(i)*0x9e37)
}

// newShard builds shard i of a store: ZCache array + policy + controller
// with zero line bits, so key fingerprints are the line addresses.
func newShard(cfg Config, i int) (*shard, error) {
	fns, err := (hash.H3Family{Seed: shardSeed(cfg.Seed, i)}).New(cfg.Ways, cfg.Rows)
	if err != nil {
		return nil, err
	}
	arr, err := cache.NewZCache(cfg.Rows, fns, cfg.Levels)
	if err != nil {
		return nil, err
	}
	var pol repl.Policy
	switch cfg.Policy {
	case PolicyBucketedLRU:
		pol, err = repl.PaperBucketedLRU(arr.Blocks())
	case PolicyFullLRU:
		pol, err = repl.NewLRU(arr.Blocks())
	default:
		err = fmt.Errorf("zkv: unknown policy %v", cfg.Policy)
	}
	if err != nil {
		return nil, err
	}
	c, err := cache.New(arr, pol, 0)
	if err != nil {
		return nil, err
	}
	sh := &shard{
		c:       c,
		arr:     arr,
		rcells:  make([]rcell, arr.Blocks()),
		rfns:    fns,
		rowsPer: cfg.Rows,
		idx:     i,
	}
	if cfg.Ways == 4 {
		h3s := make([]*hash.H3, 0, 4)
		for _, f := range fns {
			if h, ok := f.(*hash.H3); ok {
				h3s = append(h3s, h)
			}
		}
		if len(h3s) == 4 {
			sh.ws4 = hash.NewWaySet4(h3s)
		}
	}
	sh.touches.init(touchRingSize)
	c.SetSlotObserver(sh)
	return sh, nil
}

// SlotEvicted implements cache.SlotObserver: a block left the cache, so its
// cell is dead (the buffer stays for reuse by the next tenant). The
// persistent mirror clears the same cell, keeping the on-disk slot array
// aligned with the tag array.
func (sh *shard) SlotEvicted(id repl.BlockID, line uint64, dirty bool) {
	sh.resident--
	sh.killCell(id)
	if sh.ps != nil {
		sh.ps.ClearSlot(int(id))
	}
	if sh.deleting {
		return
	}
	sh.evictions++
	if sh.evictHook != nil {
		sh.evictHook(sh.idx, line)
	}
}

// SlotMoved implements cache.SlotObserver: a relocation slid a block into
// the vacated destination slot; its cell follows, and the persistent mirror
// replays the same relocation on disk.
func (sh *shard) SlotMoved(from, to repl.BlockID) {
	sh.moveCell(from, to)
	sh.movesThisInstall++
	if sh.ps != nil {
		sh.ps.MoveSlot(int(from), int(to))
	}
}

// get is the locked Get body (the seqlock fallback); the value is appended
// to dst.
func (sh *shard) get(fp uint64, key, dst []byte) ([]byte, bool) {
	sh.gets.Add(1)
	id, ok := sh.c.Peek(fp)
	if !ok {
		sh.getMisses.Add(1)
		return dst, false
	}
	c := &sh.rcells[id]
	dst, hit, _ := c.read(c.meta.Load(), key, dst)
	if !hit {
		sh.collisions.Add(1)
		sh.getMisses.Add(1)
		return dst, false
	}
	sh.c.Touch(id, false)
	sh.getHits.Add(1)
	return dst, true
}

// set is the locked Set body. With persistence, the whole mutation — the
// eviction/relocation events AccessSlot fires through the observer plus the
// cell write — runs inside one seqlock batch on the mirror.
func (sh *shard) set(fp uint64, key, val []byte) {
	sh.sets++
	sh.movesThisInstall = 0
	mirrored := sh.psBegin()
	id, hit := sh.c.AccessSlot(fp, true)
	if hit {
		if sh.holdsKey(id, key) {
			sh.overwrites++
		} else {
			// Fingerprint alias: a different key owns this tag. A
			// cache may replace it — the verified-get contract keeps
			// the alias from ever serving the wrong value.
			sh.collisions.Add(1)
		}
	} else {
		sh.inserts++
		sh.resident++
		d := sh.movesThisInstall
		if d >= WalkHistBuckets {
			d = WalkHistBuckets - 1
		}
		sh.walkHist[d]++
	}
	sh.publishCell(id, fp, key, val)
	if mirrored && sh.ps != nil {
		if _, err := sh.ps.SetSlot(int(id), fp, key, val); err != nil {
			sh.psDetach()
		}
		sh.psEnd()
	}
}

// del is the locked Delete body.
func (sh *shard) del(fp uint64, key []byte) bool {
	sh.dels++
	id, ok := sh.c.Peek(fp)
	if !ok || !sh.holdsKey(id, key) {
		return false
	}
	mirrored := sh.psBegin()
	sh.deleting = true
	sh.c.Invalidate(fp)
	sh.deleting = false
	if mirrored {
		sh.psEnd()
	}
	sh.delHits++
	return true
}
