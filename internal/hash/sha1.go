package hash

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
)

// SHA1 folds a SHA-1 digest of (seed, addr) down to the bucket range. The
// paper uses SHA-1-indexed caches only as a quality yardstick: in §IV-C,
// replacing H3 with SHA-1 makes the measured associativity distributions
// indistinguishable from the uniformity assumption, showing that residual
// deviations come from hash quality, not the design.
//
// This is far too slow for hardware (or a hot software path); it exists so
// the repository can re-run that yardstick experiment.
type SHA1 struct {
	name string
	seed uint64
	mask uint64
	bkts uint64
}

// NewSHA1 returns a SHA-1-based hash over the given power-of-two bucket count.
func NewSHA1(seed uint64, buckets uint64) (*SHA1, error) {
	if err := checkBuckets(buckets); err != nil {
		return nil, err
	}
	return &SHA1{
		name: fmt.Sprintf("sha1[seed=%#x,b=%d]", seed, buckets),
		seed: seed,
		mask: buckets - 1,
		bkts: buckets,
	}, nil
}

// Hash digests (seed || addr) and folds the 160-bit result by XOR into the
// bucket range.
func (s *SHA1) Hash(addr uint64) uint64 {
	var msg [16]byte
	binary.BigEndian.PutUint64(msg[0:8], s.seed)
	binary.BigEndian.PutUint64(msg[8:16], addr)
	sum := sha1.Sum(msg[:])
	var d [5]uint32
	for i := range d {
		d[i] = binary.BigEndian.Uint32(sum[4*i:])
	}
	folded := uint64(d[0])<<32 ^ uint64(d[1]) ^ uint64(d[2])<<32 ^ uint64(d[3]) ^ uint64(d[4])
	// Mix the halves so short bucket masks still see all digest words.
	folded ^= folded >> 32
	return folded & s.mask
}

// Buckets returns the output range size.
func (s *SHA1) Buckets() uint64 { return s.bkts }

// Name identifies this function.
func (s *SHA1) Name() string { return s.name }

// SHA1Family produces independently seeded SHA-1 folding functions.
type SHA1Family struct {
	// Seed is the root seed; way i receives a sub-seed derived from it.
	Seed uint64
}

// New returns count independent SHA-1-based hash functions.
func (f SHA1Family) New(count int, buckets uint64) ([]Func, error) {
	if count <= 0 {
		return nil, fmt.Errorf("hash: function count must be positive, got %d", count)
	}
	fns := make([]Func, count)
	rng := splitmix64(f.Seed ^ 0x5851f42d4c957f2d)
	for i := range fns {
		h, err := NewSHA1(rng(), buckets)
		if err != nil {
			return nil, err
		}
		fns[i] = h
	}
	return fns, nil
}

// FamilyName identifies the family.
func (f SHA1Family) FamilyName() string { return "sha1" }
