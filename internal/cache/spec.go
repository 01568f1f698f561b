package cache

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// Org is an array organization: where a line may live and where its
// replacement candidates come from. The zero value is the zcache.
type Org int

const (
	// OrgZCache is the paper's contribution: skewed ways plus a
	// multi-level replacement walk. At Levels 1 it is a skew-associative
	// array, the paper's Z W/W.
	OrgZCache Org = iota
	// OrgSetAssoc is a conventional set-associative array with
	// bit-selected indexing.
	OrgSetAssoc
	// OrgSetAssocHashed indexes the set-associative array with one hash
	// function (H3 in the paper's baseline).
	OrgSetAssocHashed
	// OrgFullyAssoc is the fully-associative reference.
	OrgFullyAssoc
	// OrgRandomCandidates is the §IV-B random-candidates construction
	// (candidates drawn uniformly from the whole array).
	OrgRandomCandidates
)

// HashKind selects the index hash family (§III-C, §IV-C).
type HashKind int

const (
	// HashH3 is the paper's H3 universal family (a few XOR gates per
	// hash bit in hardware).
	HashH3 HashKind = iota
	// HashSHA1 folds a SHA-1 digest — far too slow for hardware, used as
	// the §IV-C hash-quality yardstick.
	HashSHA1
)

// Spec is one array design, the paper's design space as a value: an
// organization, a number of ways, a walk depth and an index hash, at a
// geometry. Every array the simulator, the store, the TLB and the facade
// use is built from one, so two arrays built from equal specs index,
// walk and name identically.
type Spec struct {
	Org  Org
	Ways int
	// Rows is the number of rows per way (sets, for a set-associative
	// array); the array holds Ways·Rows lines.
	Rows uint64
	// Levels is the zcache walk depth; 0 means 2 (the paper's Z4/16
	// shape). WalkLevels resolves it.
	Levels int
	// Hash and Seed give the hashed organizations their index functions:
	// the family's first functions at Seed, one per way. The zero Hash
	// is H3.
	Hash HashKind
	Seed uint64
	// Candidates is the random-candidates draw count; 0 means 16.
	Candidates int
}

// WalkLevels returns the design's walk depth: Levels (2 when unset) for a
// zcache and 0 for every design that does not walk.
func (s Spec) WalkLevels() int {
	if s.Org != OrgZCache {
		return 0
	}
	if s.Levels == 0 {
		return 2
	}
	return s.Levels
}

// Label is the paper's name for a set-associative, skew-associative or
// zcache design (DesignLabel): "SAbit-W" bit-selected, "SA-W" hashed, and
// "ZW/R" for a walk yielding R candidates, so skew is "ZW/W". The other
// organizations have no such name and get "".
func (s Spec) Label() string {
	switch s.Org {
	case OrgSetAssoc, OrgSetAssocHashed, OrgZCache:
		return DesignLabel(s.Ways, s.WalkLevels(), s.Org != OrgSetAssoc)
	default:
		return ""
	}
}

// Bank returns the spec of bank (or shard) i of a banked array built from
// s. Banks are physically separate arrays, so each gets index functions of
// its own, from the bank key k = Seed ^ i·0x9e37: the family is seeded with
// Mix64(k). A hashed set-associative bank's one function is instead H3
// seeded with Mix64(k) itself, which is the H3 family's first function at
// k ^ 0x9e3779b97f4a7c15, because SplitMix64's first output is Mix64 of its
// seed.
func (s Spec) Bank(i int) Spec {
	k := s.Seed ^ uint64(i)*0x9e37
	if s.Org == OrgSetAssocHashed {
		s.Seed = k ^ 0x9e3779b97f4a7c15
	} else {
		s.Seed = hash.Mix64(k)
	}
	return s
}

// Build constructs the array. opts customize the zcache and are ignored by
// the others.
func (s Spec) Build(opts ...ZOption) (Array, error) {
	blocks := s.Ways * int(s.Rows)
	switch s.Org {
	case OrgZCache:
		fns, err := s.hashes(s.Ways)
		if err != nil {
			return nil, err
		}
		return NewZCache(s.Rows, fns, s.WalkLevels(), opts...)
	case OrgSetAssoc:
		idx, err := hash.NewBitSelect(0, s.Rows)
		if err != nil {
			return nil, err
		}
		return NewSetAssoc(s.Ways, s.Rows, idx)
	case OrgSetAssocHashed:
		fns, err := s.hashes(1)
		if err != nil {
			return nil, err
		}
		return NewSetAssoc(s.Ways, s.Rows, fns[0])
	case OrgFullyAssoc:
		return NewFullyAssoc(blocks)
	case OrgRandomCandidates:
		n := s.Candidates
		if n == 0 {
			n = 16
		}
		return NewRandomCandidates(blocks, n, s.Seed|1)
	default:
		return nil, fmt.Errorf("cache: unknown organization %d", s.Org)
	}
}

// BuildOver constructs a walking design over tags it does not own, as
// NewZCacheOver does: slot id's tag is words[id*stride].
func (s Spec) BuildOver(words []uint64, stride int) (*ZCache, error) {
	if s.WalkLevels() == 0 {
		return nil, fmt.Errorf("cache: organization %d does not walk, so it cannot borrow tags", s.Org)
	}
	fns, err := s.hashes(s.Ways)
	if err != nil {
		return nil, err
	}
	return NewZCacheOver(words, stride, s.Rows, fns, s.WalkLevels())
}

// NewCache builds the array inside a controller: a policy of kind k seeded
// with policySeed, and lines of 1<<lineBits bytes.
func (s Spec) NewCache(k repl.Kind, policySeed uint64, lineBits uint, opts ...ZOption) (*Cache, error) {
	arr, err := s.Build(opts...)
	if err != nil {
		return nil, err
	}
	pol, err := k.New(arr.Blocks(), policySeed)
	if err != nil {
		return nil, err
	}
	return New(arr, pol, lineBits)
}

// hashes returns the first n functions of the spec's family over Rows
// buckets.
func (s Spec) hashes(n int) ([]hash.Func, error) {
	switch s.Hash {
	case HashH3:
		return hash.H3Family{Seed: s.Seed}.New(n, s.Rows)
	case HashSHA1:
		return hash.SHA1Family{Seed: s.Seed}.New(n, s.Rows)
	default:
		return nil, fmt.Errorf("cache: unknown hash family %d", s.Hash)
	}
}
