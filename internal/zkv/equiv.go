package zkv

import (
	"zcache/internal/cache"
	"zcache/internal/hash"
)

// NewRefCache builds the simulator-equivalent reference engine for a
// one-shard store with cfg (zero fields defaulted): the simulator's L2-bank
// construction — H3 family, ZCache array, paper policy, cache.Cache
// controller — over the same seed derivation shard 0 of the store uses.
// Feeding it each key's Line reproduces the store's eviction decisions
// bit-for-bit; the equivalence replay
// (zcluster.ReplayEquiv) and bench/ build their references through this.
func NewRefCache(cfg Config) (*cache.Cache, error) {
	cfg = cfg.withDefaults()
	fns, err := (hash.H3Family{Seed: shardSeed(cfg.Seed, 0)}).New(cfg.Ways, cfg.Rows)
	if err != nil {
		return nil, err
	}
	arr, err := cache.NewZCache(cfg.Rows, fns, cfg.Levels)
	if err != nil {
		return nil, err
	}
	return newController(cfg, 0, arr)
}

// newController wraps arr in cfg's policy and a controller with zero line
// bits: shard i's, or its reference engine's. The policy seed follows the
// simulator's per-bank derivation (Seed^bank).
func newController(cfg Config, i int, arr *cache.ZCache) (*cache.Cache, error) {
	pol, err := cfg.Policy.New(arr.Blocks(), cfg.Seed^uint64(i))
	if err != nil {
		return nil, err
	}
	return cache.New(arr, pol, 0)
}
