package cache

import (
	"errors"
	"fmt"

	"zcache/internal/check"
	"zcache/internal/repl"
)

// Stats tallies controller-level events.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
	// CycleRetries counts victims rejected because their relocation chain
	// revisited a slot (repeat-induced cuckoo cycles, §III-D); the
	// controller reselects, so these never corrupt state.
	CycleRetries uint64
}

// SlotObserver receives physical-slot lifecycle events from the controller:
// evictions (with the departing line) and relocations. The live KV layer
// (internal/zkv) implements it to keep per-slot value cells aligned with the
// tag array, so the simulator and the store share one eviction core instead
// of forking it. All callbacks run synchronously on the miss path, under
// whatever lock the caller holds around Access/AccessSlot.
type SlotObserver interface {
	// SlotEvicted fires before slot id's block leaves the cache (demand
	// eviction or invalidation), with the departing line and its dirtiness.
	SlotEvicted(id repl.BlockID, line uint64, dirty bool)
	// SlotMoved fires for each relocation of an install chain, in
	// application order: the block (and anything the observer stores for
	// it) slides from one slot to the vacated other.
	SlotMoved(from, to repl.BlockID)
}

// Cache is the controller of §III-A/§III-C: it couples a physical Array
// with a repl.Policy, runs the replacement process (candidate walk, victim
// selection, relocations), tracks dirty lines for writeback accounting, and
// keeps its policy's view of slot contents consistent across relocations.
type Cache struct {
	array    Array
	policy   repl.Policy
	lineBits uint
	// dirty holds one bit per slot, read and written through DirtyAt and
	// putDirty. It is nil for a zcache over borrowed tags (NewZCacheOver):
	// there the tags are a store's records and the records its entries,
	// written in place, so no line is ever written back and nothing reads a
	// flag.
	dirty []uint64
	stats Stats

	// Concrete-typed views of array and policy, populated at construction
	// when the dynamic type is one of the shipped implementations. The
	// per-access dispatch helpers check these so the hot loop makes direct
	// (devirtualized, often inlined) calls; any other implementation falls
	// back to the interface. skFast is zFast again when the zcache is the
	// paper's Z W/W over tags of its own — a one-level walk, i.e. a
	// skew-associative cache — whose misses take the flat install path.
	saFast   *SetAssoc
	skFast   *ZCache
	zFast    *ZCache
	lruFast  *repl.LRU
	blruFast *repl.BucketedLRU

	// noFastPath forces the generic candidate/select/install path even for
	// flat arrays; equivalence tests use it to check the fast path against
	// the reference behaviour.
	noFastPath bool

	// strictCheck validates every candidate tree on the miss path
	// (EnableChecks); disabled it costs one predictable branch per miss
	// and nothing on hits.
	strictCheck bool

	// OnEviction, if set, is called with each evicted line's byte address
	// and dirtiness before the new line is installed. Inclusive
	// hierarchies use it for back-invalidations and writeback routing.
	OnEviction func(addr uint64, dirty bool)

	// slotObs, if set, receives slot-level eviction and relocation events
	// (SetSlotObserver); the zkv value layer rides on it.
	slotObs SlotObserver

	// hybridLevels > 0 enables the §III-D hybrid walk on zcache arrays:
	// after the first walk selects a victim, the tree is expanded below
	// it by this many extra levels and the victim reconsidered.
	hybridLevels int

	candBuf  []Candidate
	validIDs []repl.BlockID
	validIdx []int
}

// New returns a cache controller over array using policy, with 2^lineBits-
// byte lines. The policy must have been constructed for exactly
// array.Blocks() blocks.
func New(array Array, policy repl.Policy, lineBits uint) (*Cache, error) {
	if array == nil || policy == nil {
		return nil, errors.New("cache: nil array or policy")
	}
	if lineBits > 12 {
		return nil, fmt.Errorf("cache: line size 2^%d bytes is implausible", lineBits)
	}
	maxCands := array.MaxCandidates()
	c := &Cache{
		array:    array,
		policy:   policy,
		lineBits: lineBits,
		candBuf:  make([]Candidate, 0, maxCands),
		validIDs: make([]repl.BlockID, 0, maxCands),
		validIdx: make([]int, 0, maxCands),
	}
	switch a := array.(type) {
	case *SetAssoc:
		c.saFast = a
	case *ZCache:
		c.zFast = a
		if a.levels == 1 && !a.tags.borrowed {
			c.skFast = a
		}
	}
	if c.zFast == nil || !c.zFast.tags.borrowed {
		c.dirty = make([]uint64, (array.Blocks()+63)/64)
	}
	switch p := policy.(type) {
	case *repl.LRU:
		c.lruFast = p
	case *repl.BucketedLRU:
		c.blruFast = p
	}
	return c, nil
}

// Array exposes the underlying array.
func (c *Cache) Array() Array { return c.array }

// Policy exposes the replacement policy.
func (c *Cache) Policy() repl.Policy { return c.policy }

// Stats returns a snapshot of controller statistics.
func (c *Cache) Stats() Stats { return c.stats }

// Counters returns the underlying array's access accounting.
func (c *Cache) Counters() Counters { return *c.array.Counters() }

// Line returns the line address of a byte address.
func (c *Cache) Line(addr uint64) uint64 { return addr >> c.lineBits }

// lookup probes the array through its concrete type when known. For the
// tag-store arrays it spells out their Lookup, charge then locate, so the hot
// path makes one call, not two.
func (c *Cache) lookup(line uint64) (repl.BlockID, bool) {
	if line == EmptyLine {
		c.refuseEmptyLine()
	}
	switch {
	case c.saFast != nil:
		c.saFast.ctr.probe(c.saFast.tags.ways)
		return c.saFast.locate(line)
	case c.zFast != nil:
		c.zFast.ctr.probe(c.zFast.tags.ways)
		return c.zFast.locate(line)
	default:
		return c.array.Lookup(line)
	}
}

// refuseEmptyLine panics: EmptyLine is what an empty slot's tag holds, so a
// probe for it would "hit" whichever empty slot it met first.
func (c *Cache) refuseEmptyLine() {
	panic(check.Violationf("cache/empty-line",
		"%s: line %#x is the empty-slot tag, not an address", c.array.Name(), EmptyLine))
}

// onAccess notifies the policy of a hit through its concrete type when known.
func (c *Cache) onAccess(id repl.BlockID, write bool) {
	switch {
	case c.lruFast != nil:
		c.lruFast.OnAccess(id, write)
	case c.blruFast != nil:
		c.blruFast.OnAccess(id, write)
	default:
		c.policy.OnAccess(id, write)
	}
}

// onInsert notifies the policy of an insertion through its concrete type
// when known.
func (c *Cache) onInsert(id repl.BlockID, line uint64) {
	switch {
	case c.lruFast != nil:
		c.lruFast.OnInsert(id, line)
	case c.blruFast != nil:
		c.blruFast.OnInsert(id, line)
	default:
		c.policy.OnInsert(id, line)
	}
}

// onEvict notifies the policy of an eviction through its concrete type when
// known.
func (c *Cache) onEvict(id repl.BlockID) {
	switch {
	case c.lruFast != nil:
		c.lruFast.OnEvict(id)
	case c.blruFast != nil:
		c.blruFast.OnEvict(id)
	default:
		c.policy.OnEvict(id)
	}
}

// sel asks the policy to rank candidates through its concrete type when
// known.
func (c *Cache) sel(ids []repl.BlockID) int {
	switch {
	case c.lruFast != nil:
		return c.lruFast.Select(ids)
	case c.blruFast != nil:
		return c.blruFast.Select(ids)
	default:
		return c.policy.Select(ids)
	}
}

// onMoves migrates policy and dirty state along a relocation chain: one
// policy call per install, not one per hop.
func (c *Cache) onMoves(moves []Move) {
	if len(moves) == 0 {
		return
	}
	c.policy.OnMoves(moves)
	for _, m := range moves {
		c.putDirty(m.To, c.DirtyAt(m.From))
		c.putDirty(m.From, false)
	}
	if c.slotObs != nil {
		for _, m := range moves {
			c.slotObs.SlotMoved(m.From, m.To)
		}
	}
}

// Access performs one reference. It returns whether the access hit. On a
// miss the line is fetched and installed (write-allocate); write hits and
// write-allocated installs mark the line dirty.
func (c *Cache) Access(addr uint64, write bool) bool {
	_, hit := c.AccessSlot(addr, write)
	return hit
}

// AccessSlot performs one reference exactly like Access and additionally
// returns the physical slot holding the line afterwards: the hit slot, or
// the slot a missing line was installed into. The live KV layer uses it to
// address per-slot value cells while sharing Access's eviction behaviour
// bit for bit.
func (c *Cache) AccessSlot(addr uint64, write bool) (repl.BlockID, bool) {
	c.stats.Accesses++
	line := addr >> c.lineBits
	if id, ok := c.lookup(line); ok {
		c.stats.Hits++
		c.onAccess(id, write)
		if write {
			c.putDirty(id, true)
		}
		return id, true
	}
	c.stats.Misses++
	if (c.saFast != nil || c.skFast != nil) && !c.noFastPath {
		return c.installFlat(line, write), false
	}
	return c.install(line, write), false
}

// Peek is a tag-only probe: it returns the slot holding addr's line without
// touching replacement state or hit/miss accounting (array tag counters
// still advance, as for any probe).
func (c *Cache) Peek(addr uint64) (repl.BlockID, bool) {
	return c.lookup(addr >> c.lineBits)
}

// Locate returns the slot holding addr's line, like Peek, but advances no
// counter either: it is bookkeeping, not a modelled tag access, for a layer
// that keeps per-slot state beside the tags (the simulator's directory) and
// must find a line's entry without moving the bank loads. A zcache's probe
// leaves its rows in the memo the next Lookup of the line reads. It is
// defined for the tag-store arrays (set-associative, skew and zcache) and
// panics on any other.
func (c *Cache) Locate(addr uint64) (repl.BlockID, bool) {
	line := addr >> c.lineBits
	if line == EmptyLine {
		c.refuseEmptyLine()
	}
	switch {
	case c.saFast != nil:
		return c.saFast.locate(line)
	case c.zFast != nil:
		return c.zFast.locate(line)
	}
	panic(c.noTagStore())
}

// LineAt returns the line in slot id, or false for an empty slot, without
// advancing any counter. Like Locate it is defined for the tag-store arrays
// only.
func (c *Cache) LineAt(id repl.BlockID) (line uint64, ok bool) {
	t := c.tags()
	if t == nil {
		panic(c.noTagStore())
	}
	line = t.at(id)
	return line, line != EmptyLine
}

// DirtyAt reports whether slot id holds a line written since it was filled,
// without advancing any counter. A zcache over borrowed tags keeps no dirty
// bits and reports false.
func (c *Cache) DirtyAt(id repl.BlockID) bool {
	return c.dirty != nil && c.dirty[id/64]&(1<<(id%64)) != 0
}

// putDirty sets or clears slot id's dirty bit; without dirty bits it does
// nothing.
func (c *Cache) putDirty(id repl.BlockID, d bool) {
	if c.dirty == nil {
		return
	}
	w, bit := &c.dirty[id/64], uint64(1)<<(id%64)
	if d {
		*w |= bit
	} else {
		*w &^= bit
	}
}

// noTagStore is the violation Locate and LineAt raise on an array whose
// slots they cannot read.
func (c *Cache) noTagStore() *check.Violation {
	return check.Violationf("cache/no-tag-store",
		"%s: slot probes need a set-associative or zcache array", c.array.Name())
}

// Touch records a demand read hit on slot id as if Access had found it
// there: access/hit counters and policy notification. Peek+Touch lets a
// caller that must verify slot contents first (zkv compares stored key bytes
// against the probe's fingerprint match) reproduce Access's hit path
// exactly.
func (c *Cache) Touch(id repl.BlockID) {
	c.stats.Accesses++
	c.stats.Hits++
	c.onAccess(id, false)
}

// SetSlotObserver attaches o to the controller's eviction and relocation
// events (nil detaches). See SlotObserver.
func (c *Cache) SetSlotObserver(o SlotObserver) { c.slotObs = o }

// Restore takes into service a controller whose zcache array already holds
// lines: one over a warm slot table (NewZCacheOver), whose tags are exactly
// those of the shard that wrote it. An array that owns its tags starts
// empty and has nothing to restore. It checks that every resident line sits
// in one of its own per-way slots and in no other slot, and notifies the
// policy of each as an insertion, in slot order — per-slot replacement
// ranks are not persisted, so slot order becomes recency order. Hit/miss
// stats are untouched. After an error the controller must be discarded.
func (c *Cache) Restore() error {
	z := c.zFast
	if z == nil || !z.tags.borrowed {
		return fmt.Errorf("cache: %s owns its tags and does not support restore", c.array.Name())
	}
	for id := repl.BlockID(0); int(id) < z.Blocks(); id++ {
		line := z.tags.at(id)
		if line == EmptyLine {
			continue
		}
		if at, ok := z.Lookup(line); !ok || at != id {
			return fmt.Errorf("cache: line %#x in slot %d is not where a probe finds it (slot %d, %t)", line, id, at, ok)
		}
		c.onInsert(id, line)
	}
	return nil
}

// installFlat is the miss path for flat arrays (set-associative, and a
// one-level zcache — skew-associative — over its own tags), whose candidates
// are exactly the line's W slots, installs never relocate, and cuckoo cycles
// cannot occur. It scans the slots directly instead of
// materializing Candidate structs, preferring the first empty slot just like
// the generic path's first-invalid-candidate scan; when the set is full the
// policy selects over the W slot IDs in way order, which is precisely the
// valid-candidate sequence the generic path would build. It returns the slot
// the line was installed into.
func (c *Cache) installFlat(line uint64, write bool) repl.BlockID {
	ids := c.validIDs[:0]
	var tags *tagStore
	if a := c.saFast; a != nil {
		tags = &a.tags
		id := repl.BlockID(a.row(line))
		step := repl.BlockID(tags.rows)
		for w := 0; w < tags.ways; w++ {
			if tags.e[id] == EmptyLine {
				return c.finishFlat(id, 0, false, line, write)
			}
			ids = append(ids, id)
			id += step
		}
	} else {
		a := c.skFast
		tags = &a.tags
		for w, row := range a.lineRows(line) {
			id := tags.slot(w, row)
			if tags.e[id] == EmptyLine {
				return c.finishFlat(id, 0, false, line, write)
			}
			ids = append(ids, id)
		}
	}
	c.validIDs = ids
	sel := c.sel(ids)
	if sel == repl.NoVictim {
		panic(check.Violationf("cache/no-victim",
			"%s: policy refused all %d flat candidates for line %#x",
			c.array.Name(), len(ids), line))
	}
	id := ids[sel]
	return c.finishFlat(id, tags.e[id], true, line, write)
}

// finishFlat writes line into slot id (which held oldAddr if oldValid) and
// performs the same bookkeeping, in the same order, as Install followed by
// finishInstall on the generic path: tag write first, then eviction
// notification, then policy insertion. It returns id.
func (c *Cache) finishFlat(id repl.BlockID, oldAddr uint64, oldValid bool, line uint64, write bool) repl.BlockID {
	if c.saFast != nil {
		c.saFast.installAt(id, line)
	} else {
		c.skFast.installAt(id, line)
	}
	if oldValid {
		c.retire(id, oldAddr)
	}
	c.onInsert(id, line)
	c.putDirty(id, write)
	return id
}

// retire is a demand victim's bookkeeping, once its slot's tag has been
// overwritten: eviction and writeback counts, OnEviction, the slot
// observer, then the policy. The slot's dirty bit is left to its next
// occupant, which the caller installs or relocates into it.
func (c *Cache) retire(id repl.BlockID, line uint64) {
	c.stats.Evictions++
	dirty := c.DirtyAt(id)
	if dirty {
		c.stats.Writebacks++
	}
	if c.OnEviction != nil {
		c.OnEviction(line<<c.lineBits, dirty)
	}
	if c.slotObs != nil {
		c.slotObs.SlotEvicted(id, line, dirty)
	}
	c.onEvict(id)
}

// install runs the replacement process for a missing line and returns the
// slot the line landed in.
func (c *Cache) install(line uint64, write bool) repl.BlockID {
	if c.zFast != nil {
		c.candBuf = c.zFast.Candidates(line, c.candBuf[:0])
	} else {
		c.candBuf = c.array.Candidates(line, c.candBuf[:0])
	}
	cands := c.candBuf
	if c.strictCheck {
		if v := c.checkCandidates(line, cands); v != nil {
			panic(v)
		}
	}

	// Prefer an empty slot: the walk stops at the first one it finds, so
	// scan for any invalid candidate (no eviction needed). The zcache
	// walk (BFS, DFS, and the flat reference) returns the moment it
	// emits an empty slot, so only its last candidate can be invalid —
	// one check replaces the scan. Flat arrays emit all W slots
	// regardless, so the generic path still scans.
	victim := -1
	if c.zFast != nil && !c.noFastPath {
		if last := len(cands) - 1; last >= 0 && !cands[last].Valid {
			victim = last
		}
	} else {
		for i := range cands {
			if !cands[i].Valid {
				victim = i
				break
			}
		}
	}

	// Hybrid second phase (§III-D): give the prospective victim a chance
	// to relocate instead of dying, by expanding the walk below it and
	// reselecting among it and its new descendants.
	if victim < 0 && c.hybridLevels > 0 && c.zFast != nil {
		v1 := c.selectAllValid(cands)
		if v1 >= 0 {
			before := len(cands)
			cands = c.zFast.ExpandFrom(cands, v1, c.hybridLevels)
			c.candBuf = cands
			// If the expansion found an empty slot, the victim's
			// block relocates there for free.
			for i := before; i < len(cands); i++ {
				if !cands[i].Valid {
					victim = i
					break
				}
			}
			if victim < 0 {
				victim = c.selectAmong(cands, v1, before)
			}
		}
	}

	excluded := -1 // single retry slot is enough in practice, but loop anyway
	for {
		if victim < 0 {
			if excluded < 0 {
				// No invalid candidate was found above, so every
				// candidate is valid and no index is excluded:
				// skip the filtered scan.
				victim = c.selectAllValid(cands)
			} else {
				victim = c.selectVictim(cands, excluded)
			}
			if victim < 0 {
				// Every candidate excluded — impossible for
				// level-1 candidates, so this is a bug.
				panic(check.Violationf("cache/no-victim",
					"%s: no installable victim among %d candidates for line %#x",
					c.array.Name(), len(cands), line))
			}
		}
		moves, err := c.installArray(line, cands, victim)
		if errors.Is(err, ErrCuckooCycle) {
			c.stats.CycleRetries++
			excluded = victim
			victim = -1
			continue
		}
		if err != nil {
			panic(check.Violationf("cache/install",
				"%s: install of line %#x failed: %v", c.array.Name(), line, err))
		}
		return c.finishInstall(line, cands, victim, moves, write)
	}
}

// installArray dispatches Install through the array's concrete type when
// known.
func (c *Cache) installArray(line uint64, cands []Candidate, victim int) ([]Move, error) {
	if c.zFast != nil {
		return c.zFast.Install(line, cands, victim)
	}
	return c.array.Install(line, cands, victim)
}

// EnableHybridWalk turns on the §III-D hybrid BFS+DFS extension with the
// given second-phase depth (1 or 2 in practice). It fails for non-zcache
// arrays. The second phase walks below the first level, so a one-level
// zcache leaves the flat miss path for the generic one.
func (c *Cache) EnableHybridWalk(levels int) error {
	if c.zFast == nil {
		return fmt.Errorf("cache: %s has no walk to hybridize", c.array.Name())
	}
	if levels < 1 {
		return fmt.Errorf("cache: hybrid walk needs at least one level, got %d", levels)
	}
	c.hybridLevels = levels
	c.skFast = nil
	return nil
}

// selectAmong asks the policy to choose between the phase-1 victim and the
// phase-2 candidates appended at index from.
func (c *Cache) selectAmong(cands []Candidate, v1, from int) int {
	c.validIDs = c.validIDs[:0]
	c.validIdx = c.validIdx[:0]
	c.validIDs = append(c.validIDs, cands[v1].ID)
	c.validIdx = append(c.validIdx, v1)
	for i := from; i < len(cands); i++ {
		if cands[i].Valid {
			c.validIDs = append(c.validIDs, cands[i].ID)
			c.validIdx = append(c.validIdx, i)
		}
	}
	sel := c.sel(c.validIDs)
	if sel == repl.NoVictim {
		return v1
	}
	return c.validIdx[sel]
}

// selectAllValid ranks candidates known to all be valid with no exclusions
// — the common miss shape (the walk found no empty slot). The policy's pick
// then indexes cands directly, so the validIdx indirection disappears.
func (c *Cache) selectAllValid(cands []Candidate) int {
	ids := c.validIDs[:len(cands)]
	for i := range cands {
		ids[i] = cands[i].ID
	}
	c.validIDs = ids
	sel := c.sel(ids)
	if sel == repl.NoVictim {
		return -1
	}
	return sel
}

// selectVictim asks the policy to choose among valid candidates, skipping
// the excluded index (a previously rejected cuckoo cycle).
func (c *Cache) selectVictim(cands []Candidate, excluded int) int {
	c.validIDs = c.validIDs[:0]
	c.validIdx = c.validIdx[:0]
	for i := range cands {
		if cands[i].Valid && i != excluded {
			c.validIDs = append(c.validIDs, cands[i].ID)
			c.validIdx = append(c.validIdx, i)
		}
	}
	sel := c.sel(c.validIDs)
	if sel == repl.NoVictim {
		return -1
	}
	return c.validIdx[sel]
}

// finishInstall performs eviction notification, policy/dirty-bit migration
// along the relocation chain, and the final insertion. It returns the slot
// the incoming line landed in (the root of the victim's ancestor chain).
func (c *Cache) finishInstall(line uint64, cands []Candidate, victim int, moves []Move, write bool) repl.BlockID {
	if v := &cands[victim]; v.Valid {
		c.retire(v.ID, v.Addr)
	}
	c.onMoves(moves)
	// The incoming line landed in the root of the victim's ancestor chain.
	root := victim
	for cands[root].Parent >= 0 {
		root = cands[root].Parent
	}
	id := cands[root].ID
	c.onInsert(id, line)
	c.putDirty(id, write)
	return id
}

// EnableChecks toggles strict miss-path validation: every candidate tree
// produced by the array is checked for structural legality before a
// victim is selected, and a malformed tree panics with *check.Violation
// (which run engines recover and quarantine). Hits are unaffected; a
// disabled check costs one branch per miss.
func (c *Cache) EnableChecks(on bool) { c.strictCheck = on }

// tags returns the indexed array's tag store geometry when the array is
// one of the shipped tagStore-backed designs, for slot-arithmetic checks.
func (c *Cache) tags() *tagStore {
	switch {
	case c.saFast != nil:
		return &c.saFast.tags
	case c.zFast != nil:
		return &c.zFast.tags
	default:
		return nil
	}
}

// checkCandidates validates the structural invariants of a candidate
// forest (§III-A): level-1 candidates are roots, deeper candidates link
// to an earlier candidate exactly one level up, slot IDs agree with the
// way/row arithmetic, in-range IDs, and no two level-1 candidates share a
// slot (walk repeats are legal deeper in the tree — Install catches
// cycles — but the first level is one slot per way by construction).
func (c *Cache) checkCandidates(line uint64, cands []Candidate) *check.Violation {
	if len(cands) == 0 {
		return check.Violationf("cache/walk-tree",
			"%s: empty candidate set for line %#x", c.array.Name(), line)
	}
	tags := c.tags()
	blocks := c.array.Blocks()
	for i := range cands {
		cd := &cands[i]
		if int(cd.ID) < 0 || int(cd.ID) >= blocks {
			return check.Violationf("cache/walk-tree",
				"%s: candidate %d slot %d outside [0,%d)", c.array.Name(), i, cd.ID, blocks)
		}
		if tags != nil && tags.slot(cd.Way, cd.Row) != cd.ID {
			return check.Violationf("cache/walk-tree",
				"%s: candidate %d ID %d != slot(way %d, row %d)",
				c.array.Name(), i, cd.ID, cd.Way, cd.Row)
		}
		switch {
		case cd.Level == 1:
			if cd.Parent != -1 {
				return check.Violationf("cache/walk-tree",
					"%s: level-1 candidate %d has parent %d", c.array.Name(), i, cd.Parent)
			}
			for j := 0; j < i; j++ {
				if cands[j].Level == 1 && cands[j].ID == cd.ID {
					return check.Violationf("cache/walk-tree",
						"%s: level-1 candidates %d and %d share slot %d",
						c.array.Name(), j, i, cd.ID)
				}
			}
		case cd.Level > 1:
			if cd.Parent < 0 || cd.Parent >= i {
				return check.Violationf("cache/walk-tree",
					"%s: candidate %d (level %d) has out-of-order parent %d",
					c.array.Name(), i, cd.Level, cd.Parent)
			}
			if p := &cands[cd.Parent]; p.Level != cd.Level-1 || !p.Valid {
				return check.Violationf("cache/walk-tree",
					"%s: candidate %d (level %d) parent %d at level %d (valid=%t)",
					c.array.Name(), i, cd.Level, cd.Parent, p.Level, p.Valid)
			}
		default:
			return check.Violationf("cache/walk-tree",
				"%s: candidate %d has level %d", c.array.Name(), i, cd.Level)
		}
	}
	return nil
}

// Contains reports whether addr's line is resident, without touching
// replacement state or counters beyond the tag probe.
func (c *Cache) Contains(addr uint64) bool {
	_, ok := c.lookup(c.Line(addr))
	return ok
}

// Invalidate removes addr's line if resident, returning whether it was
// present and whether it was dirty (the caller owns the writeback).
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	line := c.Line(addr)
	if line == EmptyLine {
		c.refuseEmptyLine()
	}
	id, ok := c.array.Invalidate(line)
	if !ok {
		return false, false
	}
	d := c.DirtyAt(id)
	if c.slotObs != nil {
		c.slotObs.SlotEvicted(id, line, d)
	}
	c.onEvict(id)
	c.putDirty(id, false)
	return true, d
}
