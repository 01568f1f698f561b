package hash

import "fmt"

// H3 implements the H3 family of universal hash functions (Carter & Wegman,
// STOC'77), the family the paper uses to index zcache ways (§III-C).
//
// An H3 function is defined by a q×b binary matrix Q, where q is the number
// of input bits and b the number of output bits. The hash of address x is
// the XOR of the rows of Q selected by the set bits of x:
//
//	h(x) = XOR over i of (Q[i] where bit i of x is 1)
//
// In hardware this is a few XOR gates per output bit; in software it is a
// table walk with one XOR per set input bit. We process the input four bits
// at a time with precomputed nibble tables, which keeps the Hash path free
// of branches on individual bits and of allocations.
type H3 struct {
	name string
	// nibble[i][v] is the XOR of the matrix rows selected by the 4-bit
	// value v at nibble position i of the input.
	nibble [16][16]uint64
	mask   uint64
	bkts   uint64
}

// NewH3 builds one H3 function over 64-bit inputs with the given power-of-two
// bucket count. The matrix is drawn from the deterministic generator seeded
// with seed, so identical seeds produce identical functions.
func NewH3(seed uint64, buckets uint64) (*H3, error) {
	if err := checkBuckets(buckets); err != nil {
		return nil, err
	}
	h := &H3{
		name: fmt.Sprintf("h3[seed=%#x,b=%d]", seed, buckets),
		mask: buckets - 1,
		bkts: buckets,
	}
	rng := splitmix64(seed)
	b := log2(buckets)
	var rows [64]uint64
	for i := range rows {
		rows[i] = rng() & h.mask
	}
	// H3 is linear over GF(2), so a contiguous address region (a
	// subspace spanned by the low input bits) maps onto the *image* of
	// the corresponding matrix rows. If those rows are rank-deficient,
	// part of the output range is unreachable for that region — silently
	// halving a way's useful rows for exactly the address ranges real
	// workloads use. Force the low b×b submatrix to be unit
	// upper-triangular (hence invertible): any region spanning the low b
	// input bits then covers every row, while higher rows stay fully
	// random.
	for i := uint(0); i < b; i++ {
		keepHigh := rows[i] &^ (uint64(1)<<(i+1) - 1)
		rows[i] = keepHigh | uint64(1)<<i
	}
	for pos := 0; pos < 16; pos++ {
		for v := 1; v < 16; v++ {
			var acc uint64
			for bit := 0; bit < 4; bit++ {
				if v&(1<<bit) != 0 {
					acc ^= rows[pos*4+bit]
				}
			}
			h.nibble[pos][v] = acc
		}
	}
	return h, nil
}

// Hash returns the H3 hash of addr. Four nibbles are folded per iteration
// into independent accumulators: nibble[pos][0] is always zero, so extra
// lookups on a short tail are harmless XORs with 0, and the four chains
// give the CPU instruction-level parallelism the single-accumulator loop
// lacked. Typical line addresses fit 5–6 nibbles, so the loop body runs
// once or twice.
func (h *H3) Hash(addr uint64) uint64 {
	var a, b, c, d uint64
	for pos := 0; addr != 0; pos += 4 {
		a ^= h.nibble[pos][addr&0xf]
		b ^= h.nibble[pos+1][(addr>>4)&0xf]
		c ^= h.nibble[pos+2][(addr>>8)&0xf]
		d ^= h.nibble[pos+3][(addr>>12)&0xf]
		addr >>= 16
	}
	return a ^ b ^ c ^ d
}

// WayRows writes fns[w](addr) into dst[w] for every way function: one call,
// one loop, no per-way dispatch — an Indexer's path for all-H3 geometries the
// packed table does not serve. dst must be at least as long as fns.
func WayRows(fns []*H3, addr uint64, dst []uint64) {
	dst = dst[:len(fns)]
	for w, h := range fns {
		var a, b, c, d uint64
		x := addr
		for pos := 0; x != 0; pos += 4 {
			a ^= h.nibble[pos][x&0xf]
			b ^= h.nibble[pos+1][(x>>4)&0xf]
			c ^= h.nibble[pos+2][(x>>8)&0xf]
			d ^= h.nibble[pos+3][(x>>12)&0xf]
			x >>= 16
		}
		dst[w] = a ^ b ^ c ^ d
	}
}

// WaySet4MaxRows is the largest per-way row count a WaySet4 can index: each
// way's partial occupies one 16-bit lane of a table word. It covers every
// geometry the experiments and the server build (the paper's 8 MB, 4-way L2
// is 32768 rows per way); above it NewWaySet4 returns nil and an Indexer
// hashes through the per-way H3 functions.
const WaySet4MaxRows = 1 << 16

// WaySet4 merges the nibble tables of exactly four H3 way functions into one
// table of packed words: entry pos·16+v holds, in four 16-bit lanes, the four
// ways' partials for nibble value v at position pos (way w in bits
// 16w..16w+15). XOR acts on the lanes independently, so one table walk — one
// load per nibble, 2 KiB of table in all — accumulates all four ways' rows at
// once, and the lanes are split only when the walk ends. This is the shape
// the zcache wants: every probe (demand lookup, walk expansion, a zkv GET)
// needs the same address through all W ways.
type WaySet4 struct {
	tab [256]uint64 // (pos*16)+v, way w in lane w
}

// NewWaySet4 builds the packed table, or returns nil if fns is not exactly
// four functions or any of them has more than WaySet4MaxRows buckets (its
// rows would not fit a lane).
func NewWaySet4(fns []*H3) *WaySet4 {
	if len(fns) != 4 {
		return nil
	}
	ws := &WaySet4{}
	for w, h := range fns {
		if h.bkts > WaySet4MaxRows {
			return nil
		}
		for pos := 0; pos < 16; pos++ {
			for v := 0; v < 16; v++ {
				ws.tab[pos<<4|v] |= h.nibble[pos][v] << (16 * w)
			}
		}
	}
	return ws
}

// Rows4 writes the four ways' rows for addr into dst[0..3]. Two accumulators
// keep the XOR chain off the loads' critical path; the masks keep every table
// index provably in range, so the loop runs bounds-check free.
func (ws *WaySet4) Rows4(addr uint64, dst []uint64) {
	_ = dst[3]
	var a, b uint64
	for p := 0; addr != 0; p += 64 {
		a ^= ws.tab[(p|int(addr&0xf))&255] ^ ws.tab[(p+32|int(addr>>8&0xf))&255]
		b ^= ws.tab[(p+16|int(addr>>4&0xf))&255] ^ ws.tab[(p+48|int(addr>>12&0xf))&255]
		addr >>= 16
	}
	r := a ^ b
	dst[0], dst[1], dst[2], dst[3] = r&0xffff, r>>16&0xffff, r>>32&0xffff, r>>48
}

// Buckets returns the output range size.
func (h *H3) Buckets() uint64 { return h.bkts }

// Name identifies this function.
func (h *H3) Name() string { return h.name }

// H3Family produces independently seeded H3 functions.
type H3Family struct {
	// Seed is the root seed; way i receives a sub-seed derived from it.
	Seed uint64
}

// New returns count independent H3 functions.
func (f H3Family) New(count int, buckets uint64) ([]Func, error) {
	if count <= 0 {
		return nil, fmt.Errorf("hash: function count must be positive, got %d", count)
	}
	fns := make([]Func, count)
	rng := splitmix64(f.Seed ^ 0x9e3779b97f4a7c15)
	for i := range fns {
		h, err := NewH3(rng(), buckets)
		if err != nil {
			return nil, err
		}
		fns[i] = h
	}
	return fns, nil
}

// FamilyName identifies the family.
func (f H3Family) FamilyName() string { return "h3" }

// splitmix64 returns a deterministic 64-bit generator. It is the standard
// SplitMix64 mixer, used here only to expand seeds into hash-function
// parameters; it is not itself used as a cache hash.
func splitmix64(seed uint64) func() uint64 {
	state := seed
	return func() uint64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// Mix64 applies the SplitMix64 finalizer to v. It is exported for components
// (generators, random replacement) that need a cheap stateless mixer with
// good avalanche behaviour.
func Mix64(v uint64) uint64 {
	v += 0x9e3779b97f4a7c15
	v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9
	v = (v ^ (v >> 27)) * 0x94d049bb133111eb
	return v ^ (v >> 31)
}
