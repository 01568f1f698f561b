// Package sample implements representative-interval sampled simulation:
// a stream is split into fixed-size intervals, each interval is summarized
// by a log-bucketed reuse-distance signature, the signatures are clustered
// deterministically, and only one representative interval per cluster is
// measured. One pass over the stream warms every reference before a
// representative and replays the representative itself, so each leg counts
// exactly what full replay counts over that interval (TestLegIdentity).
// Full-stream metrics are extrapolated as weighted sums with
// cluster-variance error bars; extrapolation is the only error.
//
// The approach follows the representativeness-of-simulation-intervals line
// of work (interval clustering by reuse-distance signature). Everything
// here is deterministic under a fixed seed and independent of GOMAXPROCS,
// so sampled results are safe to cache under content-addressed
// fingerprints.
package sample

import "math/bits"

// Buckets is the number of power-of-two reuse-distance buckets a signature
// holds. Bucket b counts reuses at access-count distance in [2^b, 2^(b+1));
// distances of 2^25 and beyond clamp into the last bucket.
const Buckets = 26

// Signature is a log-bucketed histogram of reuse distances: for each
// access, the number of accesses since the previous access to the same
// line (first-ever accesses count as Cold). Distances are access counts,
// not distinct lines — an upper bound on stack distance that is computable
// in one streaming pass with O(footprint) state.
type Signature struct {
	// Cold counts first-touch accesses (no prior access to the line).
	Cold uint64
	// Hist[b] counts reuses with floor(log2(distance)) == b.
	Hist [Buckets]uint64
	// Total is the number of accesses observed (Cold + sum of Hist).
	Total uint64
}

// bucketOf maps a reuse distance (>= 1) to its histogram bucket.
func bucketOf(dist uint64) int {
	b := bits.Len64(dist) - 1
	if b >= Buckets {
		b = Buckets - 1
	}
	return b
}

// AddReuse records an access whose previous access to the same line was
// dist accesses ago (dist >= 1).
func (s *Signature) AddReuse(dist uint64) {
	s.Hist[bucketOf(dist)]++
	s.Total++
}

// AddCold records a first-touch access.
func (s *Signature) AddCold() {
	s.Cold++
	s.Total++
}

// Vector returns the normalized feature vector used for clustering:
// [cold fraction, bucket fractions...]. A zero-total signature yields the
// zero vector.
func (s Signature) Vector() []float64 {
	v := make([]float64, Buckets+1)
	if s.Total == 0 {
		return v
	}
	n := float64(s.Total)
	v[0] = float64(s.Cold) / n
	for b, c := range s.Hist {
		v[b+1] = float64(c) / n
	}
	return v
}

// PredictMissRatio is the signature-only miss-ratio proxy: cold accesses
// plus reuses at distances at or beyond the cache's line capacity are
// counted as misses. An access at distance d touches at most d distinct
// lines, so shorter distances can hit under any reasonable policy; the
// proxy feeds cluster selection diagnostics and the stratified error bars,
// never the extrapolated metrics themselves.
func (s Signature) PredictMissRatio(capacityLines uint64) float64 {
	if s.Total == 0 {
		return 0
	}
	if capacityLines == 0 {
		return 1
	}
	miss := s.Cold
	for b := bucketOf(capacityLines); b < Buckets; b++ {
		miss += s.Hist[b]
	}
	return float64(miss) / float64(s.Total)
}
