package zcache

import (
	"math/rand"
	"testing"

	"zcache/internal/cache"
	"zcache/internal/hash"
)

// TestBuilderDigestsPinned pins, per root design no other test fixes
// exactly, the array's Name and a digest of every hit, every eviction with
// its dirtiness, in order, and the array's Counters, against the values
// recorded when the pin was taken: the §II-B comparators, the
// fully-associative and random-candidates references, and the SHA-1-hashed
// skew and zcache arrays. stream seeds each row's reference stream; the
// victim row's 8-entry buffer is built directly, as Config always asks for
// 16 entries.
func TestBuilderDigestsPinned(t *testing.T) {
	victim8 := func(cfg Config) (*Cache, error) {
		idx, err := hash.NewBitSelect(0, 128)
		if err != nil {
			return nil, err
		}
		arr, err := cache.NewVictimCache(4, 128, 8, idx)
		if err != nil {
			return nil, err
		}
		pol, err := cfg.Policy.New(arr.Blocks(), cfg.Seed)
		if err != nil {
			return nil, err
		}
		return cache.New(arr, pol, 6)
	}
	for _, c := range []struct {
		cfg    Config
		build  func(Config) (*Cache, error) // nil: New
		stream int64
		name   string
		digest uint64
	}{
		{Config{Ways: 4, Design: DesignVictimCache}, victim8, 6, "victim-4w-128s+8", 0x65b9a118e02cd555},
		{Config{Ways: 4, Design: DesignRandomCandidates, Candidates: 12}, nil, 5, "randcand-512-n12", 0x6e60ac38210ea22},
		{Config{Ways: 1, Design: DesignColumnAssociative}, nil, 7, "column-512r", 0xdb6cf5904852d5b1},
		{Config{Ways: 4, Design: DesignFullyAssociative}, nil, 4, "fa-512", 0x6a821a36965b94e},
		{Config{Ways: 4, Design: DesignZCache, WalkLevels: 1, Hash: HashSHA1}, nil, 3, "z-4w-128r-L1", 0xd6c1ee2100dffbcc},
		{Config{Ways: 4, Design: DesignZCache, WalkLevels: 3, Hash: HashSHA1}, nil, 0, "z-4w-128r-L3", 0x8d99b3f0c6c665b3},
	} {
		cfg := c.cfg
		cfg.CapacityBytes, cfg.LineBytes, cfg.Policy, cfg.Seed = 64*512, 64, PolicyLRU, 11
		build := c.build
		if build == nil {
			build = New
		}
		cc, err := build(cfg)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		d := uint64(14695981039346656037)
		add := func(v uint64) { d = (d ^ v) * 1099511628211 }
		cc.OnEviction = func(addr uint64, dirty bool) {
			if dirty {
				addr |= 1
			}
			add(addr)
		}
		rng := rand.New(rand.NewSource(c.stream))
		for i := 0; i < 20000; i++ {
			if cc.Access(uint64(rng.Intn(1536))<<6, rng.Intn(5) == 0) {
				add(uint64(i))
			}
		}
		ctr := cc.Counters()
		for _, v := range []uint64{ctr.TagLookups, ctr.WalkLookups, ctr.TagReads, ctr.TagWrites,
			ctr.DataReads, ctr.DataWrites, ctr.Relocations} {
			add(v)
		}
		if got := cc.Array().Name(); got != c.name || d != c.digest {
			t.Errorf("%s %#x, pinned %s %#x", got, d, c.name, c.digest)
		}
	}
}
