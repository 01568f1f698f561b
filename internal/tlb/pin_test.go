package tlb

import (
	"testing"

	"zcache/internal/hash"
)

// TestPaperlikeTLBsPinned pins the three PaperlikeConfig TLBs, plus the
// zcache TLB walking one level (a skew TLB), over a seeded page stream: hits,
// misses and the array's Name, against the values recorded when the pin was
// taken. The zcache TLB's hash functions come from its seed, so a change to
// the seed it is built with moves its counts.
func TestPaperlikeTLBsPinned(t *testing.T) {
	skew := PaperlikeConfig(ZCacheTLB)
	skew.WalkLevels = 1
	for _, c := range []struct {
		cfg          Config
		name         string
		hits, misses uint64
	}{
		{PaperlikeConfig(FullyAssociative), "fa-64", 42485, 7515},
		{PaperlikeConfig(SetAssociative), "sa-4w-16s-bitselect[shift=0,b=16]", 41694, 8306},
		{PaperlikeConfig(ZCacheTLB), "z-4w-16r-L3", 42486, 7514},
		{skew, "z-4w-16r-L1", 41720, 8280},
	} {
		tl, err := New(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		state := uint64(3)
		for i := 0; i < 50000; i++ {
			state = hash.Mix64(state)
			page := state % 128
			if state%10 < 7 {
				page = state % 40
			}
			tl.Translate(page<<12 | state&0xfff)
		}
		st, name := tl.Stats(), tl.Cache().Array().Name()
		if name != c.name || st.Hits != c.hits || st.Misses != c.misses {
			t.Errorf("%s: %d hits %d misses, pinned %s: %d, %d", name, st.Hits, st.Misses, c.name, c.hits, c.misses)
		}
	}
}
