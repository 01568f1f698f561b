// Package tlb explores the paper's first deferred use case (§VIII): "using
// zcaches to build highly associative first-level caches and TLBs for
// multithreaded cores". A TLB is small (tens to hundreds of entries), so
// conventional designs buy associativity with fully-associative CAMs —
// expensive in energy and latency at every access. A zcache-organized TLB
// keeps lookups at W-way cost while the replacement walk supplies the
// associativity; because the structure is tiny, the §III-D refinements
// matter here: repeats are common (the Bloom filter earns its keep) and
// the walk may cover a large fraction of the array.
//
// The model is translation-shaped but tags-only: entries map virtual page
// numbers; a miss costs a page-table walk. Energy figures reuse the cache
// model's per-way scaling argument — a 64-entry CAM activates 64 tag
// comparators per lookup, a 4-way zcache TLB activates 4.
package tlb

import (
	"fmt"

	"zcache/internal/cache"
	"zcache/internal/repl"
)

// The three TLB organizations (cache.Org values; New accepts no other).
const (
	// FullyAssociative is the conventional CAM-based TLB.
	FullyAssociative = cache.OrgFullyAssoc
	// SetAssociative is a low-cost, low-associativity TLB.
	SetAssociative = cache.OrgSetAssoc
	// ZCacheTLB is a zcache-organized TLB with repeat-avoiding walks.
	ZCacheTLB = cache.OrgZCache
)

// Config describes a TLB.
type Config struct {
	// Entries is the TLB capacity (translations).
	Entries int
	// Ways applies to the set-associative and zcache designs.
	Ways int
	// WalkLevels is the zcache walk depth; 0 means 2.
	WalkLevels int
	// PageBits is log2(page size); 12 for 4KB pages.
	PageBits uint
	// Design selects the organization: FullyAssociative, SetAssociative
	// or ZCacheTLB.
	Design cache.Org
	// PageWalkCycles is the miss penalty (a radix page-table walk).
	PageWalkCycles int
	// Seed feeds the hash functions.
	Seed uint64
}

// PaperlikeConfig returns a 64-entry, 4KB-page TLB of the given design —
// the shape §VIII gestures at. Its hash seed is 9, the zcache TLB's.
func PaperlikeConfig(d cache.Org) Config {
	return Config{
		Entries:        64,
		Ways:           4,
		WalkLevels:     3,
		PageBits:       12,
		Design:         d,
		PageWalkCycles: 30,
		Seed:           9,
	}
}

// Stats summarizes a TLB's activity.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	PageWalks uint64
	// StallCycles is the total page-walk penalty.
	StallCycles uint64
	// LookupComparators is the number of tag comparators activated per
	// lookup — the CAM-vs-ways energy argument in one number.
	LookupComparators int
}

// TLB is a translation lookaside buffer over one of the three designs.
type TLB struct {
	cfg   Config
	cache *cache.Cache
	stats Stats
}

// New builds a TLB.
func New(cfg Config) (*TLB, error) {
	if cfg.Entries <= 0 || cfg.Entries&(cfg.Entries-1) != 0 {
		return nil, fmt.Errorf("tlb: entries must be a positive power of two, got %d", cfg.Entries)
	}
	if cfg.PageBits < 10 || cfg.PageBits > 21 {
		return nil, fmt.Errorf("tlb: page bits %d outside [10,21]", cfg.PageBits)
	}
	if cfg.PageWalkCycles <= 0 {
		return nil, fmt.Errorf("tlb: page walk cost must be positive")
	}
	spec := cache.Spec{Org: cfg.Design, Ways: cfg.Ways, Levels: cfg.WalkLevels, Seed: cfg.Seed}
	switch cfg.Design {
	case FullyAssociative:
		spec.Ways = cfg.Entries // a CAM: one set, a comparator per entry
	case SetAssociative, ZCacheTLB:
		if cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
			return nil, fmt.Errorf("tlb: %d entries do not divide into %d ways", cfg.Entries, cfg.Ways)
		}
	default:
		return nil, fmt.Errorf("tlb: unknown design %d", cfg.Design)
	}
	spec.Rows = uint64(cfg.Entries / spec.Ways)
	// Small structure: repeats are common (§III-D), so the zcache's Bloom
	// filter is on. The controller's "line size" is the page size: the TLB
	// maps pages.
	c, err := spec.NewCache(repl.KindLRU, 0, cfg.PageBits, cache.WithRepeatAvoidance(10, 2))
	if err != nil {
		return nil, err
	}
	t := &TLB{cfg: cfg, cache: c}
	t.stats.LookupComparators = spec.Ways
	return t, nil
}

// Translate looks the virtual address's page up, performing a page walk and
// installing the translation on a miss. It returns whether the access hit
// and the cycles it cost beyond the base lookup.
func (t *TLB) Translate(vaddr uint64) (hit bool, extraCycles int) {
	t.stats.Accesses++
	if t.cache.Access(vaddr, false) {
		t.stats.Hits++
		return true, 0
	}
	t.stats.Misses++
	t.stats.PageWalks++
	t.stats.StallCycles += uint64(t.cfg.PageWalkCycles)
	return false, t.cfg.PageWalkCycles
}

// Invalidate drops one page's translation (a TLB shootdown).
func (t *TLB) Invalidate(vaddr uint64) bool {
	present, _ := t.cache.Invalidate(vaddr)
	return present
}

// Stats returns the activity summary.
func (t *TLB) Stats() Stats { return t.stats }

// HitRate returns hits/accesses.
func (t *TLB) HitRate() float64 {
	if t.stats.Accesses == 0 {
		return 0
	}
	return float64(t.stats.Hits) / float64(t.stats.Accesses)
}

// Design returns the configured organization.
func (t *TLB) Design() cache.Org { return t.cfg.Design }

// Cache exposes the underlying controller for instrumentation.
func (t *TLB) Cache() *cache.Cache { return t.cache }
