package zcache

import (
	"fmt"
	"math/bits"

	"zcache/internal/cache"
	"zcache/internal/repl"
)

// Cache is a cache controller: an array organization coupled with a
// replacement policy, with hit/miss, writeback, and replacement-process
// accounting. It is the type New and the design-specific constructors
// return.
type Cache = cache.Cache

// Candidate is one replacement candidate discovered by an array (a node of
// the zcache walk tree).
type Candidate = cache.Candidate

// CacheStats are controller-level event counts.
type CacheStats = cache.Stats

// ArrayCounters are array-level access counts (tag/data reads and writes,
// walk lookups, relocations) in the units of the paper's §III-B energy
// accounting.
type ArrayCounters = cache.Counters

// PolicyKind selects a replacement policy; its String is the -policy
// flag spelling and its New builds the policy. The zero value is the
// paper's bucketed LRU.
type PolicyKind = repl.Kind

const (
	// PolicyBucketedLRU is the paper's evaluated LRU (§III-E): 8-bit
	// timestamps bumped every 5% of the cache size.
	PolicyBucketedLRU = repl.KindBucketedLRU
	// PolicyLRU is full-timestamp LRU (§III-E "Full LRU").
	PolicyLRU = repl.KindLRU
	// PolicyOPT is Belady's policy; drive it with AnnotateNextUse's trace.
	PolicyOPT = repl.KindOPT
	// PolicyRandom evicts a deterministic pseudo-random candidate.
	PolicyRandom = repl.KindRandom
	// PolicyLFU evicts the least frequently used candidate.
	PolicyLFU = repl.KindLFU
	// PolicySRRIP is 2-bit static re-reference interval prediction.
	PolicySRRIP = repl.KindSRRIP
	// PolicyDRRIP is dynamic RRIP with set-less leader dueling (§VIII).
	PolicyDRRIP = repl.KindDRRIP
)

// DesignKind selects an array organization (cache.Org); the zero value is
// the zcache.
type DesignKind = cache.Org

const (
	// DesignZCache is the paper's contribution: skewed ways plus a
	// multi-level replacement walk. At WalkLevels 1 it is a
	// skew-associative array, the paper's Z W/W.
	DesignZCache = cache.OrgZCache
	// DesignSetAssociative is a conventional set-associative array with
	// bit-selected indexing.
	DesignSetAssociative = cache.OrgSetAssoc
	// DesignSetAssociativeHashed indexes the set-associative array with
	// an H3 hash (the paper's baseline).
	DesignSetAssociativeHashed = cache.OrgSetAssocHashed
	// DesignFullyAssociative is the fully-associative reference.
	DesignFullyAssociative = cache.OrgFullyAssoc
	// DesignRandomCandidates is the §IV-B random-candidates construction
	// (candidates drawn uniformly from the whole array).
	DesignRandomCandidates = cache.OrgRandomCandidates
)

// Config describes a cache to build.
type Config struct {
	// CapacityBytes is total capacity; it must divide evenly into
	// LineBytes × Ways power-of-two rows.
	CapacityBytes uint64
	// LineBytes is the line size (a power of two).
	LineBytes uint64
	// Ways is the number of physical ways.
	Ways int
	// Design selects the organization; the zero value is DesignZCache.
	Design DesignKind
	// WalkLevels is the zcache walk depth (ignored by other designs);
	// 0 defaults to 2 (the paper's Z4/16 shape) and 1 is a
	// skew-associative cache.
	WalkLevels int
	// Candidates sets the random-candidates design's draw count
	// (ignored by other designs); 0 defaults to 16.
	Candidates int
	// Policy selects the replacement policy; the zero value is the
	// paper's bucketed LRU.
	Policy PolicyKind
	// Hash selects the hash family for hashed and zcache designs; the zero
	// value is HashH3 (the paper's choice). HashSHA1 is the §IV-C
	// quality yardstick.
	Hash HashKind
	// Seed makes hash functions and stochastic policies reproducible.
	Seed uint64
	// HybridWalkLevels, if positive, enables the §III-D hybrid BFS+DFS
	// extension: after the first walk selects a victim, the tree is
	// expanded below it by this many levels and the victim reconsidered,
	// roughly doubling associativity without extra walk-table state.
	HybridWalkLevels int
}

// HashKind selects the per-way hash family (cache.HashKind, §III-C,
// §IV-C).
type HashKind = cache.HashKind

const (
	// HashH3 is the paper's H3 universal family (a few XOR gates per
	// hash bit in hardware).
	HashH3 = cache.HashH3
	// HashSHA1 folds a SHA-1 digest — far too slow for hardware, used as
	// the §IV-C hash-quality yardstick.
	HashSHA1 = cache.HashSHA1
)

// spec returns the array design cfg names, at rows rows per way.
func (c Config) spec(rows uint64) cache.Spec {
	return cache.Spec{Org: c.Design, Ways: c.Ways, Rows: rows, Levels: c.WalkLevels,
		Hash: c.Hash, Seed: c.Seed, Candidates: c.Candidates}
}

// New builds a cache from the configuration, with the policy it names.
func New(cfg Config) (*Cache, error) {
	blocks, _, err := cfg.geometry()
	if err != nil {
		return nil, err
	}
	pol, err := cfg.Policy.New(int(blocks), cfg.Seed)
	if err != nil {
		return nil, err
	}
	return NewWithPolicy(cfg, pol)
}

// geometry validates the line size (a power of two), ways and capacity and
// returns the cache's block count and log2(LineBytes).
func (c Config) geometry() (blocks uint64, lineBits uint, err error) {
	if c.LineBytes == 0 || c.LineBytes&(c.LineBytes-1) != 0 {
		return 0, 0, fmt.Errorf("zcache: line size must be a power of two, got %d", c.LineBytes)
	}
	lineBits = uint(bits.TrailingZeros64(c.LineBytes))
	if c.Ways <= 0 {
		return 0, 0, fmt.Errorf("zcache: ways must be positive, got %d", c.Ways)
	}
	if c.CapacityBytes == 0 || c.CapacityBytes%(c.LineBytes*uint64(c.Ways)) != 0 {
		return 0, 0, fmt.Errorf("zcache: capacity %d does not divide into %d ways of %dB lines",
			c.CapacityBytes, c.Ways, c.LineBytes)
	}
	return c.CapacityBytes / c.LineBytes, lineBits, nil
}

// Label is the paper's name for a set-associative, skew-associative or
// zcache configuration (cache.Spec.Label): "SAbit-W" bit-selected, "SA-W"
// hashed, and "ZW/R" for a walk yielding R candidates, so skew is "ZW/W".
// The other designs have no such name and get "".
func (c Config) Label() string { return c.spec(0).Label() }

// Policy is the replacement-policy interface of the paper's §IV model: it
// ranks all resident blocks globally and selects victims among the array's
// candidates.
type Policy = repl.Policy

// BlockID identifies a physical slot in an array.
type BlockID = repl.BlockID

// Move is one hop of a zcache relocation chain, as Policy.OnMoves receives
// it: the block in slot From slides into the vacant slot To.
type Move = repl.Move

// NewWithPolicy builds a cache around a caller-constructed policy (for
// instrumented or custom policies). The policy must be sized for the
// configured block count.
func NewWithPolicy(cfg Config, pol Policy) (*Cache, error) {
	blocks, lineBits, err := cfg.geometry()
	if err != nil {
		return nil, err
	}
	arr, err := cfg.spec(blocks / uint64(cfg.Ways)).Build()
	if err != nil {
		return nil, err
	}
	c, err := cache.New(arr, pol, lineBits)
	if err != nil {
		return nil, err
	}
	if cfg.HybridWalkLevels > 0 {
		if err := c.EnableHybridWalk(cfg.HybridWalkLevels); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// SetWalkBudget adjusts a zcache's walk at runtime to at most n replacement
// candidates (clamped to the design's R(W, L)) — the paper's §VIII
// "software-controlled associativity" hook. It fails for non-zcache arrays
// or budgets below the first-level candidate count.
func SetWalkBudget(c *Cache, n int) error {
	z, ok := c.Array().(*cache.ZCache)
	if !ok {
		return fmt.Errorf("zcache: %s has no walk to budget", c.Array().Name())
	}
	return z.SetWalkBudget(n)
}

// WalkBudget reports a zcache's current candidate bound (0 for non-zcache
// arrays).
func WalkBudget(c *Cache) int {
	if z, ok := c.Array().(*cache.ZCache); ok {
		return z.WalkBudget()
	}
	return 0
}

// WalkTree returns the replacement candidates the cache's array would
// gather for a hypothetical miss on addr — the Fig. 1 walk tree, with
// Level and Parent fields encoding its shape. It charges the array's
// counters exactly as a real walk would (the tags are physically read), so
// use it for inspection and education, not inside measured runs. addr's
// line must not be resident (a resident line never walks).
func WalkTree(c *Cache, addr uint64) ([]Candidate, error) {
	if c.Contains(addr) {
		return nil, fmt.Errorf("zcache: %#x is resident; only misses walk", addr)
	}
	return c.Array().Candidates(c.Line(addr), nil), nil
}

// ReplacementCandidates returns R = W·Σ_{l=0}^{L-1}(W−1)^l, the §III-B
// candidate count of a W-way, L-level zcache walk.
func ReplacementCandidates(ways, levels int) int {
	return cache.ReplacementCandidates(ways, levels)
}

// WalkLevelsFor returns the smallest walk depth giving at least r
// candidates for a W-way zcache, plus the exact count at that depth.
func WalkLevelsFor(ways, r int) (levels, candidates int) {
	return cache.WalkLevelsFor(ways, r)
}

// WalkLatency returns the pipelined walk latency in cycles (§III-B).
func WalkLatency(ways, levels, tagLatency int) int {
	return cache.WalkLatency(ways, levels, tagLatency)
}
