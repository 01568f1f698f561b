package sim

import (
	"fmt"

	"zcache/internal/cache"
	"zcache/internal/hash"
	"zcache/internal/repl"
)

// buildL2Bank constructs one L2 bank's array for the configured design.
// Each bank gets independently seeded hash functions (banks are physically
// separate arrays).
func buildL2Bank(cfg Config, bank int) (cache.Array, error) {
	bankBytes := cfg.L2Bytes / uint64(cfg.L2Banks)
	blocks := bankBytes / cfg.LineBytes
	rows := blocks / uint64(cfg.L2Ways)
	seed := hash.Mix64(cfg.Seed ^ uint64(bank)*0x9e37)

	switch cfg.Design {
	case SetAssocBitSel:
		idx, err := hash.NewBitSelect(0, rows)
		if err != nil {
			return nil, err
		}
		return cache.NewSetAssoc(cfg.L2Ways, rows, idx)
	case SetAssocH3:
		idx, err := hash.NewH3(seed, rows)
		if err != nil {
			return nil, err
		}
		return cache.NewSetAssoc(cfg.L2Ways, rows, idx)
	case SkewAssoc, ZCacheL2, ZCacheL3:
		fns, err := (hash.H3Family{Seed: seed}).New(cfg.L2Ways, rows)
		if err != nil {
			return nil, err
		}
		return cache.NewZCache(rows, fns, cfg.Design.ZLevels())
	default:
		return nil, fmt.Errorf("sim: unknown design %v", cfg.Design)
	}
}

// buildL1 constructs one core's L1 data cache (conventional bit-selected
// set-associative, true per-set LRU).
func buildL1(cfg Config) (*cache.Cache, error) {
	blocks := cfg.L1Bytes / cfg.LineBytes
	sets := blocks / uint64(cfg.L1Ways)
	idx, err := hash.NewBitSelect(0, sets)
	if err != nil {
		return nil, err
	}
	arr, err := cache.NewSetAssoc(cfg.L1Ways, sets, idx)
	if err != nil {
		return nil, err
	}
	pol, err := repl.NewLRU(arr.Blocks())
	if err != nil {
		return nil, err
	}
	return cache.New(arr, pol, cfg.lineBits())
}
