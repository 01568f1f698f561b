package trace

import (
	"fmt"
	"math"
)

// Strided replays a column-major sweep over a footprint: addresses advance
// by stride, and each time the sweep wraps it shifts one line over, so the
// whole footprint is covered in strided order (the access pattern of
// blocked matrix and FFT kernels). This is the classic pathological pattern
// for bit-selected indices (§II-A): consecutive accesses whose stride is a
// multiple of set-count × line-size land in one set.
type Strided struct {
	name      string
	base      uint64
	stride    uint64
	footprint uint64
	lineSize  uint64
	gap       uint32
	writeMod  uint64
	pos       uint64
	phase     uint64
	count     uint64
	r0        rng
	r         rng
}

// NewStrided returns a strided generator over [base, base+footprint).
// writeEvery makes every writeEvery-th access a store (0 disables writes).
func NewStrided(base, stride, footprint uint64, gap uint32, writeEvery uint64, seed uint64) (*Strided, error) {
	if stride == 0 {
		return nil, fmt.Errorf("trace: strided stride must be positive")
	}
	if footprint == 0 {
		return nil, fmt.Errorf("trace: strided footprint must be positive")
	}
	g := &Strided{
		name:      fmt.Sprintf("strided[s=%d,f=%d]", stride, footprint),
		base:      base,
		stride:    stride,
		footprint: footprint,
		lineSize:  64,
		gap:       gap,
		writeMod:  writeEvery,
		r0:        newRNG(seed),
	}
	g.Reset()
	return g, nil
}

// Next returns the next strided access.
func (g *Strided) Next() (Access, bool) {
	a := Access{Addr: g.base + g.pos, Gap: g.gap}
	if g.writeMod != 0 && g.count%g.writeMod == g.writeMod-1 {
		a.Write = true
	}
	g.pos += g.stride
	if g.pos >= g.footprint {
		// Column-major wrap: shift to the next line within the stride
		// so successive sweeps cover the whole footprint.
		g.phase += g.lineSize
		if g.phase >= g.stride {
			g.phase = 0
		}
		g.pos = g.phase
	}
	g.count++
	return a, true
}

// NextBatch fills buf with the next accesses. Strided streams are infinite,
// so the buffer always fills.
func (g *Strided) NextBatch(buf []Access) int {
	for i := range buf {
		buf[i], _ = g.Next()
	}
	return len(buf)
}

// Reset rewinds the stream.
func (g *Strided) Reset() { g.pos, g.phase, g.count, g.r = 0, 0, 0, g.r0 }

// Name identifies the generator.
func (g *Strided) Name() string { return g.name }

// Zipf models temporal locality: accesses draw lines from a footprint with
// Zipf-distributed popularity, so a hot subset dominates while a long tail
// provides capacity and conflict pressure. This is the workhorse stand-in
// for the paper's cache-sensitive benchmarks: with a footprint near the L2
// capacity, replacement quality (and hence associativity) moves the miss
// rate, exactly the regime Fig. 4 explores.
type Zipf struct {
	name     string
	base     uint64
	lineSize uint64
	lines    uint64
	gap      uint32
	writeFr  float64
	// inverse-CDF table, sampled: cdf[i] is cumulative probability of
	// ranks [0..i] over a coarse grid; lookup interpolates.
	cdf []float64
	// cellBound narrows the CDF binary search: bucket b of the quantized
	// draw u covers results in [cellBound[b], cellBound[b+1]], which for a
	// skewed CDF is usually a single cell. It holds one bound per bucket
	// edge, so one more than there are buckets. The narrowed search
	// visits the same lower bound the full-range search would.
	cellBound []int32
	// perm and p2mask implement a cycle-walking permutation scrambling
	// rank → line: multiplication by an odd constant is bijective on the
	// power-of-two domain covering lines, and out-of-range values walk
	// the cycle until they land inside. Bijectivity matters: a lossy
	// scramble silently shrinks the footprint.
	perm   uint64
	p2mask uint64
	r0     rng
	r      rng
}

// NewZipf returns a Zipf generator over footprint bytes with the given skew
// (theta; 0 = uniform, ~0.99 = web-like, >1 strongly skewed), line size, and
// write fraction in [0,1].
func NewZipf(base, footprint, lineSize uint64, theta float64, gap uint32, writeFrac float64, seed uint64) (*Zipf, error) {
	if err := validateCommon("zipf", lineSize, footprint); err != nil {
		return nil, err
	}
	if theta < 0 {
		return nil, fmt.Errorf("trace: zipf theta must be non-negative, got %g", theta)
	}
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: zipf write fraction %g outside [0,1]", writeFrac)
	}
	lines := footprint / lineSize
	p2 := uint64(1)
	for p2 < lines {
		p2 <<= 1
	}
	g := &Zipf{
		name:     fmt.Sprintf("zipf[f=%d,theta=%.2f]", footprint, theta),
		base:     base,
		lineSize: lineSize,
		lines:    lines,
		gap:      gap,
		writeFr:  writeFrac,
		perm:     0x9e3779b97f4a7c15,
		p2mask:   p2 - 1,
		r0:       newRNG(seed),
	}
	// Build a coarse inverse-CDF over at most 4096 grid points; within a
	// grid cell ranks are drawn uniformly. This keeps construction O(grid)
	// instead of O(lines) for multi-GB footprints while preserving the
	// head/tail shape that matters to the cache.
	grid := int(lines)
	if grid > 4096 {
		grid = 4096
	}
	g.cdf = make([]float64, grid)
	var sum float64
	for i := 0; i < grid; i++ {
		// Representative rank for cell i.
		lo := float64(i) * float64(lines) / float64(grid)
		weight := cellWeight(lo, float64(lines)/float64(grid), theta)
		sum += weight
		g.cdf[i] = sum
	}
	for i := range g.cdf {
		g.cdf[i] /= sum
	}
	// Index the CDF: lowerBound is monotone in u, so a draw falling in
	// bucket b (u ∈ [b/B, (b+1)/B)) can only land between the bounds of
	// the bucket's endpoints.
	const buckets = 2048
	g.cellBound = make([]int32, buckets+1)
	for b := range g.cellBound {
		g.cellBound[b] = int32(lowerBound(g.cdf, float64(b)/buckets))
	}
	g.Reset()
	return g, nil
}

// lowerBound returns the least index i with cdf[i] >= u, clamped to the last
// index — the same search Next performs.
func lowerBound(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cellWeight integrates the zipf density rank^-theta over one grid cell.
func cellWeight(lo, width, theta float64) float64 {
	// ∫(x+1)^-theta dx from lo to lo+width.
	if theta == 1 {
		return math.Log(lo+width+1) - math.Log(lo+1)
	}
	p := 1 - theta
	return (math.Pow(lo+width+1, p) - math.Pow(lo+1, p)) / p
}

// cell returns the CDF grid cell of draw u ∈ [0, 1): lowerBound's answer,
// by a binary search narrowed to u's bucket (u < 1, so the bucket never
// overflows; the narrowed range provably brackets the full-range lower
// bound).
func (g *Zipf) cell(u float64) int {
	b := int(u * float64(len(g.cellBound)-1))
	lo, hi := int(g.cellBound[b]), int(g.cellBound[b+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if g.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Next returns the next zipf-distributed access.
func (g *Zipf) Next() (Access, bool) {
	u := g.r.float()
	lo := g.cell(u)
	cellLines := g.lines / uint64(len(g.cdf))
	if cellLines == 0 {
		cellLines = 1
	}
	rank := uint64(lo)*cellLines + g.r.below(cellLines)
	if rank >= g.lines {
		rank = g.lines - 1
	}
	// Scramble rank→line so popular lines are spread across the address
	// space (real heaps do not cluster hot data contiguously).
	line := (rank * g.perm) & g.p2mask
	for line >= g.lines {
		line = (line * g.perm) & g.p2mask
	}
	a := Access{Addr: g.base + line*g.lineSize, Gap: g.gap}
	if g.r.float() < g.writeFr {
		a.Write = true
	}
	return a, true
}

// NextBatch fills buf with the next accesses. Zipf streams are infinite, so
// the buffer always fills.
func (g *Zipf) NextBatch(buf []Access) int {
	for i := range buf {
		buf[i], _ = g.Next()
	}
	return len(buf)
}

// Reset rewinds the stream.
func (g *Zipf) Reset() { g.r = g.r0 }

// Name identifies the generator.
func (g *Zipf) Name() string { return g.name }

// PointerChase emulates dependent random walks over a footprint (canneal-like
// graph traversal): each access is to a pseudo-random line determined by the
// previous one, defeating spatial locality entirely.
type PointerChase struct {
	name     string
	base     uint64
	lineSize uint64
	lines    uint64
	gap      uint32
	writeFr  float64
	cur      uint64
	r0       rng
	r        rng
}

// NewPointerChase returns a pointer-chase generator over footprint bytes.
func NewPointerChase(base, footprint, lineSize uint64, gap uint32, writeFrac float64, seed uint64) (*PointerChase, error) {
	if err := validateCommon("pointerchase", lineSize, footprint); err != nil {
		return nil, err
	}
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: pointerchase write fraction %g outside [0,1]", writeFrac)
	}
	g := &PointerChase{
		name:     fmt.Sprintf("ptrchase[f=%d]", footprint),
		base:     base,
		lineSize: lineSize,
		lines:    footprint / lineSize,
		gap:      gap,
		writeFr:  writeFrac,
		r0:       newRNG(seed),
	}
	g.Reset()
	return g, nil
}

// Next returns the next chase step.
func (g *PointerChase) Next() (Access, bool) {
	// The "pointer" is a deterministic function of the current node, so
	// the walk has long cycles over the footprint.
	g.cur = (g.cur*6364136223846793005 + 1442695040888963407) % g.lines
	a := Access{Addr: g.base + g.cur*g.lineSize, Gap: g.gap}
	if g.r.float() < g.writeFr {
		a.Write = true
	}
	return a, true
}

// NextBatch fills buf with the next accesses. Chase streams are infinite,
// so the buffer always fills.
func (g *PointerChase) NextBatch(buf []Access) int {
	for i := range buf {
		buf[i], _ = g.Next()
	}
	return len(buf)
}

// Reset rewinds the stream.
func (g *PointerChase) Reset() { g.cur, g.r = 0, g.r0 }

// Name identifies the generator.
func (g *PointerChase) Name() string { return g.name }

// Stream models streaming/scan kernels (streamcluster-like): long sequential
// passes over a footprint far larger than the cache, with optional re-reads
// of a small hot region between passes.
type Stream struct {
	name      string
	base      uint64
	footprint uint64
	lineSize  uint64
	hotBytes  uint64
	hotEvery  uint64
	gap       uint32
	writeFr   float64
	pos       uint64
	count     uint64
	r0        rng
	r         rng
}

// NewStream returns a streaming generator. hotBytes of the footprint are
// revisited once every hotEvery accesses (0 disables the hot region).
func NewStream(base, footprint, lineSize, hotBytes, hotEvery uint64, gap uint32, writeFrac float64, seed uint64) (*Stream, error) {
	if err := validateCommon("stream", lineSize, footprint); err != nil {
		return nil, err
	}
	if hotBytes > footprint {
		return nil, fmt.Errorf("trace: stream hot region %d exceeds footprint %d", hotBytes, footprint)
	}
	if writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: stream write fraction %g outside [0,1]", writeFrac)
	}
	g := &Stream{
		name:      fmt.Sprintf("stream[f=%d,hot=%d]", footprint, hotBytes),
		base:      base,
		footprint: footprint,
		lineSize:  lineSize,
		hotBytes:  hotBytes,
		hotEvery:  hotEvery,
		gap:       gap,
		writeFr:   writeFrac,
		r0:        newRNG(seed),
	}
	g.Reset()
	return g, nil
}

// Next returns the next streaming access.
func (g *Stream) Next() (Access, bool) {
	g.count++
	var addr uint64
	if g.hotEvery != 0 && g.hotBytes >= g.lineSize && g.count%g.hotEvery == 0 {
		hotLines := g.hotBytes / g.lineSize
		addr = g.base + g.r.below(hotLines)*g.lineSize
	} else {
		addr = g.base + g.pos
		g.pos += g.lineSize
		if g.pos >= g.footprint {
			g.pos = 0
		}
	}
	a := Access{Addr: addr, Gap: g.gap}
	if g.r.float() < g.writeFr {
		a.Write = true
	}
	return a, true
}

// NextBatch fills buf with the next accesses. Streaming sweeps are
// infinite, so the buffer always fills.
func (g *Stream) NextBatch(buf []Access) int {
	for i := range buf {
		buf[i], _ = g.Next()
	}
	return len(buf)
}

// Reset rewinds the stream.
func (g *Stream) Reset() { g.pos, g.count, g.r = 0, 0, g.r0 }

// Name identifies the generator.
func (g *Stream) Name() string { return g.name }

// Mixed interleaves component generators with fixed weights, modelling
// phase-mixed applications (e.g. compute regions with bursts of table
// lookups). Selection is deterministic in the seed.
type Mixed struct {
	name    string
	parts   []Generator
	weights []float64 // cumulative
	r0      rng
	r       rng
}

// NewMixed returns a generator drawing each access from parts[i] with
// probability weights[i] (weights need not be normalized).
func NewMixed(name string, parts []Generator, weights []float64, seed uint64) (*Mixed, error) {
	if len(parts) == 0 || len(parts) != len(weights) {
		return nil, fmt.Errorf("trace: mixed needs matching non-empty parts (%d) and weights (%d)", len(parts), len(weights))
	}
	var sum float64
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("trace: mixed weight %g is negative", w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, fmt.Errorf("trace: mixed weights sum to zero")
	}
	g := &Mixed{name: name, parts: parts, r0: newRNG(seed)}
	cum := 0.0
	for _, w := range weights {
		cum += w / sum
		g.weights = append(g.weights, cum)
	}
	g.Reset()
	return g, nil
}

// Next draws from a weighted component.
func (g *Mixed) Next() (Access, bool) {
	u := g.r.float()
	for i, c := range g.weights {
		if u <= c {
			return g.parts[i].Next()
		}
	}
	return g.parts[len(g.parts)-1].Next()
}

// NextBatch fills buf with the next accesses. Component choice is a fresh
// draw per access, so the components' pulls must interleave exactly as
// repeated Next() would; the win is the single dispatch into the mix.
func (g *Mixed) NextBatch(buf []Access) int {
	for i := range buf {
		a, ok := g.Next()
		if !ok {
			return i
		}
		buf[i] = a
	}
	return len(buf)
}

// Reset rewinds the stream and every component.
func (g *Mixed) Reset() {
	g.r = g.r0
	for _, p := range g.parts {
		p.Reset()
	}
}

// Name identifies the generator.
func (g *Mixed) Name() string { return g.name }

// SharedRegion wraps a private generator and redirects a fraction of its
// accesses into a region shared by all threads of a multithreaded workload.
// This is what makes the MESI directory earn its keep: shared reads create
// multi-sharer lines, shared writes create invalidations.
type SharedRegion struct {
	name      string
	inner     Generator
	sharedLo  uint64
	sharedLen uint64
	lineSize  uint64
	frac      float64
	writeFr   float64
	r0        rng
	r         rng
}

// NewSharedRegion redirects frac of inner's accesses uniformly into
// [sharedLo, sharedLo+sharedLen); a writeFrac of those are stores.
func NewSharedRegion(inner Generator, sharedLo, sharedLen, lineSize uint64, frac, writeFrac float64, seed uint64) (*SharedRegion, error) {
	if err := validateCommon("shared", lineSize, sharedLen); err != nil {
		return nil, err
	}
	if frac < 0 || frac > 1 || writeFrac < 0 || writeFrac > 1 {
		return nil, fmt.Errorf("trace: shared fractions (%g, %g) outside [0,1]", frac, writeFrac)
	}
	g := &SharedRegion{
		name:      fmt.Sprintf("shared[%s,frac=%.2f]", inner.Name(), frac),
		inner:     inner,
		sharedLo:  sharedLo,
		sharedLen: sharedLen,
		lineSize:  lineSize,
		frac:      frac,
		writeFr:   writeFrac,
		r0:        newRNG(seed),
	}
	g.Reset()
	return g, nil
}

// Next returns the next access, possibly redirected to the shared region.
func (g *SharedRegion) Next() (Access, bool) {
	a, ok := g.inner.Next()
	if !ok {
		return a, false
	}
	if g.r.float() < g.frac {
		lines := g.sharedLen / g.lineSize
		a.Addr = g.sharedLo + g.r.below(lines)*g.lineSize
		a.Write = g.r.float() < g.writeFr
	}
	return a, true
}

// NextBatch bulk-pulls from the wrapped generator, then applies the shared-
// region redirect in place. The wrapper's RNG and the inner generator's RNG
// are independent streams, each consumed in per-access order, so the result
// is byte-identical to repeated Next() calls.
func (g *SharedRegion) NextBatch(buf []Access) int {
	n := FillBatch(g.inner, buf)
	lines := g.sharedLen / g.lineSize
	for i := 0; i < n; i++ {
		if g.r.float() < g.frac {
			buf[i].Addr = g.sharedLo + g.r.below(lines)*g.lineSize
			buf[i].Write = g.r.float() < g.writeFr
		}
	}
	return n
}

// Reset rewinds the stream and the wrapped generator.
func (g *SharedRegion) Reset() { g.r = g.r0; g.inner.Reset() }

// Name identifies the generator.
func (g *SharedRegion) Name() string { return g.name }

// Limit truncates a generator after n accesses; useful for tests and for
// materializing finite traces from infinite generators.
type Limit struct {
	inner Generator
	n     uint64
	seen  uint64
}

// NewLimit wraps inner, ending the stream after n accesses.
func NewLimit(inner Generator, n uint64) *Limit { return &Limit{inner: inner, n: n} }

// Next forwards to the wrapped generator until the limit is reached.
func (g *Limit) Next() (Access, bool) {
	if g.seen >= g.n {
		return Access{}, false
	}
	g.seen++
	return g.inner.Next()
}

// NextBatch bulk-pulls from the wrapped generator, clamped to the remaining
// budget.
func (g *Limit) NextBatch(buf []Access) int {
	if g.seen >= g.n {
		return 0
	}
	if rem := g.n - g.seen; uint64(len(buf)) > rem {
		buf = buf[:rem]
	}
	n := FillBatch(g.inner, buf)
	g.seen += uint64(n)
	return n
}

// Reset rewinds the stream and the wrapped generator.
func (g *Limit) Reset() { g.seen = 0; g.inner.Reset() }

// Name identifies the generator.
func (g *Limit) Name() string { return fmt.Sprintf("limit[%s,n=%d]", g.inner.Name(), g.n) }
