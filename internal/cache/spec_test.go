package cache

import (
	"math"
	"strings"
	"testing"

	"zcache/internal/hash"
)

// TestZCacheRejectsHugeWalk checks that a walk whose R(W, L) exceeds
// maxWalkCandidates is refused at construction with an error naming R —
// including walks whose R, or W·L, overflows an int — and that the largest
// legal walk builds.
func TestZCacheRejectsHugeWalk(t *testing.T) {
	for _, c := range []struct {
		ways, levels int
		r            string
	}{
		{4, 20, "R = 6.974e+09"},
		{2, math.MaxInt/2 + 1, "R = 9.223e+18"},
		{16, 1 << 40, "R = +Inf"},
		{2, maxWalkCandidates/2 + 1, "R = 6.554e+04"},
	} {
		_, err := NewZCache(64, mkFns(t, c.ways, 64, 1), c.levels)
		if err == nil || !strings.Contains(err.Error(), c.r) {
			t.Errorf("W=%d L=%d: error %v, want one naming %q", c.ways, c.levels, err, c.r)
		}
	}
	z, err := NewZCache(64, mkFns(t, 2, 64, 1), maxWalkCandidates/2)
	if err != nil {
		t.Fatal(err)
	}
	if got := z.MaxCandidates(); got != 2*maxWalkCandidates {
		t.Errorf("largest legal walk: MaxCandidates %d, want %d", got, 2*maxWalkCandidates)
	}
}

// TestSpecBuildsEveryOrg checks each organization's array name, walk depth
// and label, and that an unknown organization or hash family fails.
func TestSpecBuildsEveryOrg(t *testing.T) {
	for _, c := range []struct {
		spec        Spec
		name, label string
		levels      int
	}{
		{Spec{Org: OrgZCache, Ways: 4, Rows: 64}, "z-4w-64r-L2", "Z4/16", 2},
		{Spec{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 3}, "z-4w-64r-L3", "Z4/52", 3},
		{Spec{Org: OrgZCache, Ways: 4, Rows: 64, Levels: 1}, "z-4w-64r-L1", "Z4/4", 1},
		{Spec{Org: OrgSetAssoc, Ways: 4, Rows: 64}, "sa-4w-64s-bitselect[shift=0,b=64]", "SAbit-4", 0},
		{Spec{Org: OrgFullyAssoc, Ways: 4, Rows: 64}, "fa-256", "", 0},
		{Spec{Org: OrgRandomCandidates, Ways: 4, Rows: 64}, "randcand-256-n16", "", 0},
	} {
		arr, err := c.spec.Build()
		if err != nil {
			t.Fatalf("%+v: %v", c.spec, err)
		}
		if arr.Name() != c.name || c.spec.Label() != c.label || c.spec.WalkLevels() != c.levels {
			t.Errorf("%+v: %s %q L%d, want %s %q L%d", c.spec, arr.Name(), c.spec.Label(),
				c.spec.WalkLevels(), c.name, c.label, c.levels)
		}
	}
	for _, bad := range []Spec{
		{Org: Org(99), Ways: 4, Rows: 64},
		{Org: OrgZCache, Ways: 4, Rows: 64, Hash: HashKind(9)},
	} {
		if _, err := bad.Build(); err == nil {
			t.Errorf("%+v built", bad)
		}
	}
	if _, err := (Spec{Org: OrgSetAssoc, Ways: 4, Rows: 64}).BuildOver(make([]uint64, 256), 1); err == nil {
		t.Error("a set-associative array borrowed tags")
	}
}

// TestBankHashedSetAssoc checks Bank's claim for the hashed set-associative
// organization: bank b's one index function is H3 seeded with
// Mix64(Seed ^ b·0x9e37).
func TestBankHashedSetAssoc(t *testing.T) {
	for _, seed := range []uint64{0, 1, 0xC0FFEE, math.MaxUint64} {
		for b := 0; b < 8; b++ {
			arr, err := Spec{Org: OrgSetAssocHashed, Ways: 4, Rows: 256, Seed: seed}.Bank(b).Build()
			if err != nil {
				t.Fatal(err)
			}
			h, err := hash.NewH3(hash.Mix64(seed^uint64(b)*0x9e37), 256)
			if err != nil {
				t.Fatal(err)
			}
			idx := arr.(*SetAssoc).index
			if arr.Name() != "sa-4w-256s-"+h.Name() {
				t.Fatalf("seed %#x bank %d: %s, want index %s", seed, b, arr.Name(), h.Name())
			}
			for a := uint64(0); a < 4096; a++ {
				if x := hash.Mix64(a); idx.Hash(x) != h.Hash(x) {
					t.Fatalf("seed %#x bank %d: rows differ at %#x", seed, b, x)
				}
			}
		}
	}
}
