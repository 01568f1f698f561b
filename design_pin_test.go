package zcache

import (
	"math/rand"
	"testing"
)

// TestBuilderDigestsPinned pins, per root design no other test fixes
// exactly, the array's Name and a digest of every hit, every eviction with
// its dirtiness, in order, and the array's Counters, against the values
// recorded when the pin was taken: the fully-associative and
// random-candidates references, and the SHA-1-hashed skew and zcache
// arrays. stream seeds each row's reference stream.
func TestBuilderDigestsPinned(t *testing.T) {
	for _, c := range []struct {
		cfg    Config
		stream int64
		name   string
		digest uint64
	}{
		{Config{Ways: 4, Design: DesignRandomCandidates, Candidates: 12}, 5, "randcand-512-n12", 0x6e60ac38210ea22},
		{Config{Ways: 4, Design: DesignFullyAssociative}, 4, "fa-512", 0x6a821a36965b94e},
		{Config{Ways: 4, Design: DesignZCache, WalkLevels: 1, Hash: HashSHA1}, 3, "z-4w-128r-L1", 0xd6c1ee2100dffbcc},
		{Config{Ways: 4, Design: DesignZCache, WalkLevels: 3, Hash: HashSHA1}, 0, "z-4w-128r-L3", 0x8d99b3f0c6c665b3},
	} {
		cfg := c.cfg
		cfg.CapacityBytes, cfg.LineBytes, cfg.Policy, cfg.Seed = 64*512, 64, PolicyLRU, 11
		cc, err := New(cfg)
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
