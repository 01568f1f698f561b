// Package hash provides the hash-function families used to index cache ways.
//
// The zcache (and the skew-associative cache it generalizes) indexes each way
// with a different hash function over the block address. The quality of these
// functions determines how well the replacement-candidate stream matches the
// uniformity assumption of the paper's associativity framework (§IV-B): the
// more independent and uniform the per-way indices, the closer the measured
// associativity distribution tracks F_A(x) = x^n.
//
// Three families are provided, mirroring the paper:
//
//   - BitSelect: the trivial "use low index bits" function of a conventional
//     set-associative cache. Cheap, but pathological under strided access.
//   - H3: the universal, pairwise-independent family of Carter and Wegman,
//     built from a random 0/1 matrix applied over GF(2) (a few XOR gates per
//     output bit in hardware). This is the family the paper deploys (§III-C).
//   - SHA1: a cryptographic-strength folding of a SHA-1 digest (crypto/sha1).
//     Used only as a quality yardstick (§IV-C notes H3 vs SHA-1 experiments).
//
// All implementations are deterministic given their seed, safe for concurrent
// readers after construction, and allocation-free on the Hash path.
package hash

import "fmt"

// Func maps a 64-bit block address to an index in [0, Buckets).
//
// Implementations must be pure: the same address always yields the same
// index, and calls never mutate state. This makes a Func safe to share
// across goroutines and, more importantly, models a combinational hardware
// hash circuit.
type Func interface {
	// Hash returns the bucket index for addr, in [0, Buckets()).
	Hash(addr uint64) uint64
	// Buckets returns the size of the output range.
	Buckets() uint64
	// Name identifies the family and parameters, for reports.
	Name() string
}

// Family constructs a set of independent Funcs, one per cache way.
//
// Implementations must return functions that are independently seeded:
// way i and way j (i != j) must not be the same function, otherwise the
// skewing property that gives the zcache its associativity disappears.
type Family interface {
	// New returns count independent hash functions with the given output
	// range. buckets must be a power of two (cache ways always are).
	New(count int, buckets uint64) ([]Func, error)
	// FamilyName identifies the family, for reports.
	FamilyName() string
}

// checkBuckets validates a bucket count shared by all families.
func checkBuckets(buckets uint64) error {
	if buckets == 0 {
		return fmt.Errorf("hash: bucket count must be positive, got 0")
	}
	if buckets&(buckets-1) != 0 {
		return fmt.Errorf("hash: bucket count must be a power of two, got %d", buckets)
	}
	return nil
}

// log2 returns floor(log2(v)) for v > 0.
func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
