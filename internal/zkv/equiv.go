package zkv

import (
	"zcache/internal/cache"
)

// NewRefCache builds the simulator-equivalent reference engine for a
// one-shard store with cfg (zero fields defaulted): shard 0's array spec
// built over tags of its own — the simulator's L2-bank zcache — in the
// paper policy's cache.Cache controller. Feeding it each key's Line
// reproduces the store's eviction decisions bit-for-bit; the equivalence
// replay (zcluster.ReplayEquiv) and bench/ build their references through
// this.
func NewRefCache(cfg Config) (*cache.Cache, error) {
	cfg = cfg.withDefaults()
	arr, err := cfg.shardSpec(0).Build()
	if err != nil {
		return nil, err
	}
	return newController(cfg, 0, arr)
}

// newController wraps arr in cfg's policy and a controller with zero line
// bits: shard i's, or its reference engine's. The policy seed follows the
// simulator's per-bank derivation (Seed^bank).
func newController(cfg Config, i int, arr cache.Array) (*cache.Cache, error) {
	pol, err := cfg.Policy.New(arr.Blocks(), cfg.Seed^uint64(i))
	if err != nil {
		return nil, err
	}
	return cache.New(arr, pol, 0)
}
