package cache

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// ErrCuckooCycle is returned by ZCache.Install when the selected victim's
// ancestor chain revisits a physical slot, so the relocation sequence would
// overwrite a block it still needs. Callers exclude the candidate and
// reselect; Cache.Access does this automatically.
var ErrCuckooCycle = errors.New("cache: relocation chain revisits a slot")

// ZCache is the paper's contribution (§III): a skew-indexed array whose
// replacement process walks the tag array breadth-first to assemble far more
// replacement candidates than the cache has ways, then frees the incoming
// line's slot through a chain of relocations.
//
// Hits behave exactly like a skew-associative cache — one probe per way,
// the embedded skewTags — so hit latency and energy are those of a W-way
// design. Associativity instead tracks the number of replacement candidates
// R (§IV), which grows geometrically with the walk depth:
// R = W · Σ_{l=0}^{L-1} (W-1)^l.
type ZCache struct {
	skewTags
	name   string
	levels int
	// maxCands bounds the walk: R(W, L) until SetWalkBudget lowers it to
	// stop the walk early under bandwidth or energy pressure (§III: "the
	// replacement process can be stopped early, simply resulting in a worse
	// replacement candidate").
	maxCands int
	// repeatFilter, when non-nil, suppresses expansion through addresses
	// already visited in this walk (§III-D's Bloom-filter extension).
	repeatFilter *Bloom
	// strategy selects BFS (default) or DFS candidate exploration.
	strategy WalkStrategy
	// dfsState seeds the DFS way choices deterministically.
	dfsState uint64
	moves    []Move
	chain    []repl.BlockID
	// walkRows is expandLevel's scratch: the rows of the parent being
	// expanded (memoRows keeps the incoming line's).
	walkRows []uint64

	// Per-level walk profile: walks counts Candidates calls, levelEmits[l]
	// candidates emitted at level l+1, levelReads[l] single tag reads
	// charged at level l+1 (level 1 reads are charged to the demand
	// lookup). Feeds the bench schema's walk_levels section.
	walks      uint64
	levelEmits []uint64
	levelReads []uint64
}

// WalkLevelStat is one level of the accumulated walk profile.
type WalkLevelStat struct {
	// Level is 1 for direct conflicts, increasing along the walk.
	Level int
	// Candidates is the total number of candidates emitted at this level.
	Candidates uint64
	// TagReads is the total single-way walk tag reads charged at this
	// level (zero at level 1: the demand lookup paid for those).
	TagReads uint64
}

// WalkProfile returns the per-level walk cost accumulated since
// construction, plus the number of walks. Level sizes divided by walks give
// the average frontier per level.
func (z *ZCache) WalkProfile() (walks uint64, levels []WalkLevelStat) {
	levels = make([]WalkLevelStat, len(z.levelEmits))
	for i := range levels {
		levels[i] = WalkLevelStat{Level: i + 1, Candidates: z.levelEmits[i], TagReads: z.levelReads[i]}
	}
	return z.walks, levels
}

// WalkStrategy selects how the replacement walk explores candidates
// (§III-D "Alternative walk strategies").
type WalkStrategy int

const (
	// WalkBFS is the paper's design: breadth-first levels, pipelined
	// reads, walk-table state of a few hundred bits.
	WalkBFS WalkStrategy = iota
	// WalkDFS is the cuckoo-hashing strategy: a single relocation chain
	// explored depth-first. It needs no walk table and interleaves walk
	// with relocations, but for the same number of candidates it incurs
	// more relocations (the victim sits L = R/W deep) and its reads
	// cannot be pipelined.
	WalkDFS
)

// ZOption customizes a ZCache.
type ZOption func(*ZCache) error

// WithWalkStrategy selects BFS (default) or DFS exploration.
func WithWalkStrategy(s WalkStrategy) ZOption {
	return func(z *ZCache) error {
		if s != WalkBFS && s != WalkDFS {
			return fmt.Errorf("cache: unknown walk strategy %d", s)
		}
		z.strategy = s
		return nil
	}
}

// WithRepeatAvoidance attaches a Bloom filter that prunes walk expansion
// through already-visited addresses (§III-D).
func WithRepeatAvoidance(logBits uint, hashes int) ZOption {
	return func(z *ZCache) error {
		f, err := NewBloom(logBits, hashes)
		if err != nil {
			return err
		}
		z.repeatFilter = f
		return nil
	}
}

// NewZCache returns a zcache with rows rows per way, per-way hash functions
// fns, and a walk of the given number of levels. levels == 1 is a
// skew-associative cache (the paper's Z W/W configuration, NewSkew).
func NewZCache(rows uint64, fns []hash.Func, levels int, opts ...ZOption) (*ZCache, error) {
	return newZCache(tagStore{rows: rows}, fns, levels, opts)
}

// NewZCacheOver is NewZCache over tags it does not own: slot id's tag is
// words[id*stride], the first word of another layer's per-slot record (zkv's
// slot headers, internal/slotstore, which are then a shard's only copy of
// its lines). Each word must hold EmptyLine or a line in one of its own
// per-way slots; Cache.Restore checks a table that already holds lines.
//
// The array reads the words with plain loads and never writes them: Install
// and Invalidate report what changes and the controller's SlotObserver, which
// the caller must attach, applies it. SlotEvicted empties a slot, SlotMoved
// moves a tag along with its record, and the caller writes the incoming line
// into the slot AccessSlot returns. stride is a power of two.
func NewZCacheOver(words []uint64, stride int, rows uint64, fns []hash.Func, levels int, opts ...ZOption) (*ZCache, error) {
	if stride < 1 || stride&(stride-1) != 0 {
		return nil, fmt.Errorf("cache: tag stride %d is not a power of two", stride)
	}
	shift := uint(bits.TrailingZeros(uint(stride)))
	z, err := newZCache(tagStore{rows: rows, e: words, shift: shift, borrowed: true}, fns, levels, opts)
	if err != nil {
		return nil, err
	}
	if uint64(len(words)) < uint64(z.Blocks()-1)<<shift+1 {
		return nil, fmt.Errorf("cache: %d tag words cannot hold %d slots %d words apart", len(words), z.Blocks(), stride)
	}
	return z, nil
}

func newZCache(tags tagStore, fns []hash.Func, levels int, opts []ZOption) (*ZCache, error) {
	rows := tags.rows
	st, err := newSkewTags(tags, fns)
	if err != nil {
		return nil, err
	}
	if levels < 1 {
		return nil, fmt.Errorf("cache: zcache walk needs at least one level, got %d", levels)
	}
	if len(fns) == 1 && levels > 1 {
		return nil, fmt.Errorf("cache: a 1-way zcache cannot walk (no alternative ways)")
	}
	if err := checkWalkSize(len(fns), levels); err != nil {
		return nil, err
	}
	r := ReplacementCandidates(len(fns), levels)
	z := &ZCache{
		skewTags: st,
		name:     fmt.Sprintf("z-%dw-%dr-L%d", len(fns), rows, levels),
		levels:   levels,
		maxCands: r,
		walkRows: make([]uint64, len(fns)),
	}
	for _, opt := range opts {
		if err := opt(z); err != nil {
			return nil, err
		}
	}
	// A relocation chain visits strictly decreasing candidate indices, so
	// its length is bounded by the candidate count: 2R covers the walk plus
	// the hybrid second phase, and Install never allocates on the hot path.
	z.chain = make([]repl.BlockID, 0, 2*r)
	z.moves = make([]Move, 0, 2*r)
	z.levelEmits = make([]uint64, levels, levels+8)
	z.levelReads = make([]uint64, levels, levels+8)
	return z, nil
}

// Name identifies the design.
func (z *ZCache) Name() string { return z.name }

// Levels returns the configured walk depth.
func (z *ZCache) Levels() int { return z.levels }

// SetWalkBudget re-bounds the walk to at most n candidates, clamped to the
// design's natural maximum R(W, L). This is the §VIII future-work hook —
// "making associativity a software-controlled property": the same hardware
// trades associativity against tag bandwidth and miss energy at runtime.
func (z *ZCache) SetWalkBudget(n int) error {
	if n < z.tags.ways {
		return fmt.Errorf("cache: walk budget %d below the %d first-level candidates", n, z.tags.ways)
	}
	max := ReplacementCandidates(z.tags.ways, z.levels)
	if n > max {
		n = max
	}
	z.maxCands = n
	return nil
}

// WalkBudget returns the current candidate bound.
func (z *ZCache) WalkBudget() int { return z.maxCands }

// MaxCandidates returns the most candidates a walk can yield: the natural
// R(W, L) bound, doubled because the §III-D hybrid second phase may expand
// the tree up to twice the budget. Runtime budget changes (SetWalkBudget)
// only shrink below this.
func (z *ZCache) MaxCandidates() int {
	return 2 * ReplacementCandidates(z.tags.ways, z.levels)
}

// Candidates performs the breadth-first walk of §III-A. First-level
// candidates are the blocks at the incoming line's per-way slots; each
// further level hashes the previous level's addresses with the other ways'
// functions and reads the tags there. The walk stops at the configured
// depth, at the candidate budget, or as soon as an empty slot is found
// (an empty slot is a free installation — no deeper candidate can beat it).
//
// The walk is flat: a level's parents are a range of buf itself, each parent
// is hashed through all W ways by one Indexer.Rows call inside the emit loop,
// and a candidate costs one tag word read and one record written in place —
// no frontier is staged, and the walk writes nothing to the tag array.
// Candidate order, counter charges, and early-exit behaviour are
// bit-identical to the recursive formulation (walk_ref_test.go holds that
// formulation as a property-test oracle).
func (z *ZCache) Candidates(line uint64, buf []Candidate) []Candidate {
	if z.strategy == WalkDFS {
		return z.candidatesDFS(line, buf)
	}
	start := len(buf)
	buf = z.reserve(buf, z.maxCands)
	if z.repeatFilter != nil {
		z.repeatFilter.Reset()
	}
	z.walks++
	// Level 1: direct conflicts. Tag reads were charged by the demand
	// lookup that missed, and the rows were memoized by it too.
	buf, stop := z.rootLevel(buf, z.lineRows(line), z.repeatFilter)
	z.noteLevel(1, uint64(len(buf)-start), 0)
	// Deeper levels: expand each level into the other ways.
	levelStart, levelEnd := start, len(buf)
	for level := 2; level <= z.levels && !stop && levelStart < levelEnd; level++ {
		buf, stop = z.expandLevel(buf, levelStart, levelEnd, level, start+z.maxCands, z.repeatFilter)
		levelStart, levelEnd = levelEnd, len(buf)
	}
	return buf
}

// reserve returns buf with room for a walk of up to budget more candidates,
// so the emit loops store into it by index with no per-candidate append
// bookkeeping. Level 1 always emits W candidates even under a tighter
// budget. The controller's buffer is sized to MaxCandidates, so this
// allocates only for a caller that brought a smaller one.
func (z *ZCache) reserve(buf []Candidate, budget int) []Candidate {
	if budget < z.tags.ways {
		budget = z.tags.ways
	}
	if cap(buf) >= len(buf)+budget {
		return buf
	}
	nb := make([]Candidate, len(buf), len(buf)+budget)
	copy(nb, buf)
	return nb
}

// put writes one candidate record in place. Field stores, not a struct
// literal: the compiler assembles a literal in a stack temporary with narrow
// stores and copies it out with wide loads, a store-forwarding stall per
// candidate on the walk's hottest statement.
func (c *Candidate) put(id repl.BlockID, addr uint64, valid bool, way int, row uint64, level, parent int) {
	c.ID = id
	c.Addr = addr
	c.Valid = valid
	c.Way = way
	c.Row = row
	c.Level = level
	c.Parent = parent
}

// rootLevel emits the first level — the blocks at the incoming line's W
// slots, rows[w] being way w's row. It reports stop=true when it ended at an
// empty slot.
func (z *ZCache) rootLevel(buf []Candidate, rows []uint64, filter *Bloom) (out []Candidate, stop bool) {
	n := len(buf)
	buf = buf[:cap(buf)]
	for w := 0; w < z.tags.ways; w++ {
		row := rows[w]
		id := z.tags.slot(w, row)
		addr := z.tags.at(id)
		valid := addr != EmptyLine
		buf[n].put(id, addr, valid, w, row, 1, -1)
		n++
		if !valid {
			return buf[:n], true
		}
		if filter != nil {
			filter.Add(addr)
		}
	}
	return buf[:n], false
}

// expandLevel emits the children of the parents buf[lo:hi] as one walk
// level: every parent's block hashed into every way but its own, in parent
// then way order. It stops — reporting stop=true — once buf holds limit
// candidates or an empty slot has been emitted, charges the level's tag
// reads, and accounts it in the walk profile. filter, when non-nil, prunes
// children whose address the walk has already visited (§III-D). buf must
// have capacity for limit candidates.
func (z *ZCache) expandLevel(buf []Candidate, lo, hi, level, limit int, filter *Bloom) (out []Candidate, stop bool) {
	// Hot-path state is hoisted into locals: the emit loop reads no ZCache
	// fields.
	tags, shift, idx, rows := z.tags.e, z.tags.shift&63, z.idx, z.walkRows
	ways, rowsPerWay := z.tags.ways, z.tags.rows
	base := len(buf)
	n := base
	buf = buf[:cap(buf)]
	var reads uint64
emit:
	for parent := lo; parent < hi; parent++ {
		pWay := buf[parent].Way
		idx.Rows(buf[parent].Addr, rows)
		for w := 0; w < ways; w++ {
			if w == pWay {
				// This hash matches the slot the parent already
				// occupies (§III-A: "one of the hash values always
				// matches").
				continue
			}
			if n >= limit {
				stop = true
				break emit
			}
			row := rows[w]
			id := repl.BlockID(uint64(w)*rowsPerWay + row)
			addr := tags[uint64(id)<<shift]
			valid := addr != EmptyLine
			reads++
			if filter != nil && valid && filter.MayContain(addr) {
				// Pruned (§III-D): the address was already visited
				// (or a false positive), so do not re-add it or
				// expand through it.
				continue
			}
			buf[n].put(id, addr, valid, w, row, level, parent)
			n++
			if !valid {
				stop = true
				break emit
			}
			if filter != nil {
				filter.Add(addr)
			}
		}
	}
	z.chargeWalk(reads)
	z.noteLevel(level, uint64(n-base), reads)
	return buf[:n], stop
}

// noteLevel accumulates the per-level walk profile. The grow path is split
// out so noteLevel itself stays inlinable on the walk's hot exits.
func (z *ZCache) noteLevel(level int, emits, reads uint64) {
	if level > len(z.levelEmits) {
		z.growProfile(level)
	}
	z.levelEmits[level-1] += emits
	z.levelReads[level-1] += reads
}

// growProfile extends the profile arrays past the configured depth, which
// only hybrid expansion walks reach.
func (z *ZCache) growProfile(level int) {
	for len(z.levelEmits) < level {
		z.levelEmits = append(z.levelEmits, 0)
		z.levelReads = append(z.levelReads, 0)
	}
}

// ExpandFrom grows the walk tree below cands[idx] by up to extraLevels more
// levels, appending new candidates (with Parent chains rooted at idx) to
// cands and returning the extended slice. This implements the §III-D hybrid
// BFS+DFS extension: after the first walk selects a prospective victim N,
// a second expansion phase tries to *re-insert* N elsewhere instead of
// evicting it, roughly doubling the number of candidates without growing
// the walk-table state (the phase reuses the same table).
//
// The appended candidates use the same encoding as Candidates, so Install
// handles the longer relocation chains unchanged. Expansion stops early at
// an empty slot or at the candidate budget (counted across the whole tree).
func (z *ZCache) ExpandFrom(cands []Candidate, idx, extraLevels int) []Candidate {
	if idx < 0 || idx >= len(cands) || !cands[idx].Valid {
		return cands
	}
	start := len(cands)
	limit := 2 * z.maxCands
	if start < limit {
		cands = z.reserve(cands, limit-start)
	}
	levelStart, levelEnd := idx, idx+1
	for lvl := 0; lvl < extraLevels && levelStart < levelEnd; lvl++ {
		if len(cands) >= limit {
			// The budget is already spent (possible when the caller
			// hands in an oversized tree): nothing would be emitted
			// or charged, and the walk profile must not grow a level.
			break
		}
		var stop bool
		cands, stop = z.expandLevel(cands, levelStart, levelEnd, cands[levelStart].Level+1, limit, nil)
		if stop {
			break
		}
		// The first expansion's parent is idx alone; every later level's
		// parents are the candidates the previous one appended.
		if lvl == 0 {
			levelStart = start
		} else {
			levelStart = levelEnd
		}
		levelEnd = len(cands)
	}
	return cands
}

// candidatesDFS explores a single relocation chain depth-first, the cuckoo-
// hashing strategy of §III-D. The first level reads the line's W slots (free
// — the demand lookup read them); then the chain repeatedly hops from the
// current candidate to one pseudo-randomly chosen alternative way of its
// resident block until the candidate budget is reached. Every chain read is
// serialized (charged as its own pipeline slot), modelling that DFS reads
// cannot be pipelined.
func (z *ZCache) candidatesDFS(line uint64, buf []Candidate) []Candidate {
	start := len(buf)
	buf = z.reserve(buf, z.maxCands)
	buf, stop := z.rootLevel(buf, z.lineRows(line), nil)
	if stop {
		return buf
	}
	// Chain from a pseudo-random first-level candidate.
	z.dfsState = hash.Mix64(z.dfsState ^ line)
	cur := start + int(z.dfsState%uint64(z.tags.ways))
	n := len(buf)
	buf = buf[:cap(buf)]
chain:
	for n-start < z.maxCands {
		p := &buf[cur]
		z.dfsState = hash.Mix64(z.dfsState)
		hop := int(z.dfsState % uint64(z.tags.ways-1))
		w := (p.Way + 1 + hop) % z.tags.ways
		row := z.idx.Row(w, p.Addr)
		id := z.tags.slot(w, row)
		// Serialized single read: one pipeline slot each.
		z.ctr.TagReads++
		z.ctr.WalkLookups++
		z.ctr.TagLookups++
		// A chain that bites its own tail cannot continue; the controller
		// will pick among what was found. The visited slots are exactly
		// the candidates so far, at most the budget.
		for i := start; i < n; i++ {
			if buf[i].ID == id {
				break chain
			}
		}
		addr := z.tags.at(id)
		buf[n].put(id, addr, addr != EmptyLine, w, row, p.Level+1, cur)
		cur = n
		n++
		if addr == EmptyLine {
			break
		}
	}
	return buf[:n]
}

// chargeWalk accounts one walk level's tag traffic: singles for the energy
// model, full-width pipeline slots (ceil(singles/W)) for the bandwidth
// analysis of §VI-D.
func (z *ZCache) chargeWalk(singleReads uint64) {
	if singleReads == 0 {
		return
	}
	z.ctr.TagReads += singleReads
	w := uint64(z.tags.ways)
	slots := (singleReads + w - 1) / w
	z.ctr.WalkLookups += slots
	z.ctr.TagLookups += slots
}

// Install evicts cands[victim] and relocates its ancestor chain so the
// incoming line lands in a first-level slot (§III-A "Relocations"). The
// returned moves, ordered from the victim's slot upward, let the caller
// migrate per-slot metadata (replacement state, dirty bits). Over borrowed
// tags (NewZCacheOver) Install writes none: the moves are the caller's to
// apply, each tag with its record, so a relocated line is written once.
func (z *ZCache) Install(line uint64, cands []Candidate, victim int) ([]Move, error) {
	if victim < 0 || victim >= len(cands) {
		return nil, fmt.Errorf("cache: victim index %d out of range [0,%d)", victim, len(cands))
	}
	// Collect the chain victim → root and verify it never revisits a
	// slot: a repeated slot means a relocation would clobber a block
	// before it is copied (the cuckoo-cycle case repeats can create).
	z.chain = z.chain[:0]
	for i := victim; ; i = cands[i].Parent {
		id := cands[i].ID
		for _, prev := range z.chain {
			if prev == id {
				return nil, ErrCuckooCycle
			}
		}
		z.chain = append(z.chain, id)
		if cands[i].Parent < 0 {
			break
		}
	}
	// Relocate ancestors: each parent's block moves into its child's
	// (now free) slot, from the victim upward.
	z.moves = z.moves[:0]
	own := !z.tags.borrowed
	for i := 0; i+1 < len(z.chain); i++ {
		to, from := z.chain[i], z.chain[i+1]
		if own {
			z.tags.e[to], z.tags.e[from] = z.tags.e[from], EmptyLine
		}
		z.moves = append(z.moves, Move{From: from, To: to})
		// §III-B: each relocation reads and writes both arrays.
		z.ctr.TagReads++
		z.ctr.TagWrites++
		z.ctr.DataReads++
		z.ctr.DataWrites++
		z.ctr.Relocations++
	}
	// The incoming line lands in the chain's root (a first-level slot).
	if own {
		z.tags.e[z.chain[len(z.chain)-1]] = line
	}
	z.ctr.TagWrites++
	z.ctr.DataWrites++
	return z.moves, nil
}

// installAt writes line into slot id, charging the same install traffic as
// an Install that relocates nothing. The controller's flat miss path uses it
// on a one-level zcache to place a line without materializing Candidates.
func (z *ZCache) installAt(id repl.BlockID, line uint64) {
	z.tags.e[id] = line
	z.ctr.TagWrites++
	z.ctr.DataWrites++
}

// SlotLine reports the line resident in slot id, if any. It is a single tag
// read with no ranking side effects — the cheap revalidation zkv's deferred
// read-hit touches use to confirm a slot still holds the fingerprint they
// were queued for.
func (z *ZCache) SlotLine(id repl.BlockID) (uint64, bool) {
	if int(id) >= z.Blocks() {
		return 0, false
	}
	line := z.tags.at(id)
	return line, line != EmptyLine
}

// ReplacementCandidates returns R for a W-way, L-level walk with no repeats:
// R = W · Σ_{l=0}^{L-1} (W-1)^l (§III-B). The paper's Z4/16 is (4,2) and
// Z4/52 is (4,3).
func ReplacementCandidates(ways, levels int) int {
	r := 0
	pow := 1
	for l := 0; l < levels; l++ {
		r += pow
		pow *= ways - 1
	}
	return ways * r
}

// maxWalkCandidates bounds R(W, L): a zcache keeps relocation scratch for
// 2R candidates, so a walk must fit in memory. The paper's largest walk is
// R = 52.
const maxWalkCandidates = 1 << 16

// checkWalkSize rejects a walk whose R(ways, levels) exceeds
// maxWalkCandidates. R is computed in floating point, so a deep walk cannot
// overflow it: W·((W−1)^L − 1)/(W − 2), or W·L when W ≤ 2.
func checkWalkSize(ways, levels int) error {
	r := float64(ways) * float64(levels)
	if ways > 2 {
		r = float64(ways) * (math.Pow(float64(ways-1), float64(levels)) - 1) / float64(ways-2)
	}
	if r > maxWalkCandidates {
		return fmt.Errorf("cache: a %d-way, %d-level walk yields R = %.4g replacement candidates, over the %d one walk may gather",
			ways, levels, r, maxWalkCandidates)
	}
	return nil
}

// DesignLabel is the paper's name for a ways-way array, the one spelling
// every figure, table and result-store key uses: "ZW/R" for a zcache whose
// levels-level walk yields R = ReplacementCandidates(W, L) candidates — so a
// skew-associative cache, one level, is "ZW/W" — and for a set-associative
// array (levels 0) "SA-W" when its index is hashed, as the paper's baseline
// is, or "SAbit-W" when it is bit-selected.
func DesignLabel(ways, levels int, hashed bool) string {
	switch {
	case levels > 0:
		return fmt.Sprintf("Z%d/%d", ways, ReplacementCandidates(ways, levels))
	case hashed:
		return fmt.Sprintf("SA-%d", ways)
	default:
		return fmt.Sprintf("SAbit-%d", ways)
	}
}

// WalkLevelsFor returns the smallest L such that a W-way, L-level walk
// yields at least r candidates, and the exact candidate count at that depth.
func WalkLevelsFor(ways, r int) (levels, candidates int) {
	if ways < 2 {
		return 1, ways
	}
	for l := 1; ; l++ {
		c := ReplacementCandidates(ways, l)
		if c >= r {
			return l, c
		}
	}
}

// WalkLatency returns T_walk in cycles per §III-B: each level is pipelined,
// costing max(T_tag, (W-1)^l) cycles, so a few levels deliver tens of
// candidates in a handful of tag-array latencies.
func WalkLatency(ways, levels, tagLatency int) int {
	t := 0
	pow := 1
	for l := 0; l < levels; l++ {
		if tagLatency > pow {
			t += tagLatency
		} else {
			t += pow
		}
		pow *= ways - 1
	}
	return t
}
