package main

import (
	"encoding/binary"
	"math"
	"sort"

	"zcache/internal/hash"
)

// The generators here are the benchmark's own on purpose: equal seeds must
// give equal inputs whatever the repository's trace generators become, and
// bench_test.go pins their output by digest.

// rng is splitmix64.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// ranker draws key ranks in [0, n): rank 0 is the most popular key.
// theta 0 is uniform; otherwise P(rank i) ∝ 1/(i+1)^theta, sampled in O(1)
// through Vose's alias table so that drawing a key costs a few nanoseconds
// beside the 100-ns store calls it feeds.
type ranker struct {
	n     uint64
	prob  []uint32 // acceptance threshold per column, scaled to 2^32
	alias []uint32
}

func newRanker(n int, theta float64) *ranker {
	rk := &ranker{n: uint64(n)}
	if theta == 0 {
		return rk
	}
	p := make([]float64, n)
	sum := 0.0
	for i := range p {
		p[i] = 1 / math.Pow(float64(i+1), theta)
		sum += p[i]
	}
	rk.prob = make([]uint32, n)
	rk.alias = make([]uint32, n)
	var small, large []uint32
	for i := range p {
		p[i] *= float64(n) / sum
		if p[i] < 1 {
			small = append(small, uint32(i))
		} else {
			large = append(large, uint32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s, l := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		rk.prob[s] = uint32(p[s] * (1 << 32))
		rk.alias[s] = l
		p[l] -= 1 - p[s]
		if p[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range append(small, large...) {
		rk.prob[i] = math.MaxUint32
		rk.alias[i] = i
	}
	return rk
}

func (rk *ranker) draw(r *rng) uint32 {
	u := r.next()
	col := uint32((u >> 32) * rk.n >> 32)
	if rk.prob == nil || uint32(u) <= rk.prob[col] {
		return col
	}
	return rk.alias[col]
}

// keyspace maps ranks to the 8-byte keys and 64-byte values the program
// under test sees. A value is a function of its key alone, so every GET hit
// can be checked without remembering what was stored.
type keyspace struct{ salt uint64 }

func newKeyspace(seed uint64) keyspace { return keyspace{salt: hash.Mix64(seed) << 24} }

// key is injective in rank: Mix64 is a bijection and ranks stay below 2^24.
func (ks keyspace) key(rank uint32) uint64 { return hash.Mix64(ks.salt | uint64(rank)) }

const valBytes = 64

func fillValue(dst []byte, key uint64) {
	x := key | 1
	for i := 0; i < valBytes; i += 8 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}

func checkValue(val []byte, key uint64) bool {
	if len(val) != valBytes {
		return false
	}
	var want [valBytes]byte
	fillValue(want[:], key)
	return string(val) == string(want[:])
}

// opGen is one load thread's request stream. getPermille < 0 marks a
// cache-aside stream: every draw is a GET, and the caller SETs on a miss.
type opGen struct {
	r           rng
	rk          *ranker
	ks          keyspace
	getPermille int
}

func newOpGen(seed uint64, thread int, rk *ranker, getPermille int) *opGen {
	return &opGen{r: rng{s: hash.Mix64(seed ^ uint64(thread+1)<<56)}, rk: rk, ks: newKeyspace(seed), getPermille: getPermille}
}

func (g *opGen) next() (key uint64, set bool) {
	rank := g.rk.draw(&g.r)
	if g.getPermille >= 0 {
		set = int(g.r.next()%1000) >= g.getPermille
	}
	return g.ks.key(rank), set
}

// warmOrder returns the ranks to prefill, oldest first, so that a store of
// the given capacity starts the timed phase in the state the workload's own
// stream would have left it in: the most recently drawn distinct keys, in
// order of last use. Keys the prefix never drew come first (they are the
// coldest), so a key space that fits is loaded completely. Prefilling the
// hottest ranks instead would start above the steady hit rate and drift
// down for as long as it takes to miss a cache-full of keys, which over a
// one-request-at-a-time network path is longer than the run.
func warmOrder(seed uint64, rk *ranker, capacity int) []uint32 {
	n := int(rk.n)
	last := make([]int32, n)
	r := rng{s: hash.Mix64(seed ^ 0x7761726d)}
	for i := 1; i <= 4*n; i++ {
		last[rk.draw(&r)] = int32(i)
	}
	order := make([]uint32, n)
	for i := range order {
		order[i] = uint32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		la, lb := last[order[a]], last[order[b]]
		if la != lb {
			return la < lb
		}
		return order[a] > order[b]
	})
	if n > capacity {
		order = order[n-capacity:]
	}
	return order
}
