package cache

import (
	"fmt"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// VWay is the §II-B tag-indirection comparator (Qureshi, Thompson & Patt,
// ISCA'05): the tag array is set-associative but holds tagFactor× more
// entries than there are data blocks, and each valid tag points into a
// non-associative data array. Because tag conflicts are rare (the set
// usually has a spare tag), replacement is *global* over data blocks —
// demand-based associativity — at the cost of ~2× tag storage and
// serialized tag→data access (which the paper's Table II discussion counts
// against indirection designs).
//
// Global replacement is modelled the way the original approximates it:
// a bounded sample of data blocks becomes the candidate set (the original
// scans a reuse-counter pointer; an unbiased sample preserves the
// associativity-distribution behaviour, cf. §IV-B's random-candidates
// analysis). When the line's tag set is full, replacement degrades to the
// set's own blocks — the local fallback.
//
// BlockIDs name data blocks, so policies and the associativity
// instrumentation work unchanged.
type VWay struct {
	name string
	idx  hash.Func
	// Tag array: sets × tagWays entries.
	tagWays  int
	sets     uint64
	tagAddr  []uint64
	tagValid []bool
	tagData  []int32 // tag entry → data block
	// Data array: blocks entries.
	blocks    int
	dataTag   []int32 // data block → owning tag entry
	dataValid []bool
	freeData  []int32
	// sample is the global-candidate sample size.
	sample int
	state  uint64
	// LocalFallbacks counts misses whose tag set was full (forced local
	// replacement).
	LocalFallbacks uint64
	ctr            Counters
}

// NewVWay returns a V-Way cache with the given data capacity in blocks,
// tag sets of tagWays entries each (sets × tagWays should be ≥ blocks,
// classically 2×), candidate sample size for global replacement, and index
// function over sets.
func NewVWay(blocks int, tagWays int, sets uint64, sample int, idx hash.Func, seed uint64) (*VWay, error) {
	if err := validateGeometry("v-way", tagWays, sets); err != nil {
		return nil, err
	}
	if blocks <= 0 {
		return nil, fmt.Errorf("cache: v-way needs positive data blocks, got %d", blocks)
	}
	if uint64(tagWays)*sets < uint64(blocks) {
		return nil, fmt.Errorf("cache: v-way tag entries %d below data blocks %d", uint64(tagWays)*sets, blocks)
	}
	if sample <= 0 {
		return nil, fmt.Errorf("cache: v-way needs a positive candidate sample, got %d", sample)
	}
	if idx.Buckets() != sets {
		return nil, fmt.Errorf("cache: index function covers %d buckets, array has %d sets", idx.Buckets(), sets)
	}
	entries := uint64(tagWays) * sets
	v := &VWay{
		name:      fmt.Sprintf("vway-%db-%dx%dt", blocks, tagWays, sets),
		idx:       idx,
		tagWays:   tagWays,
		sets:      sets,
		tagAddr:   make([]uint64, entries),
		tagValid:  make([]bool, entries),
		tagData:   make([]int32, entries),
		blocks:    blocks,
		dataTag:   make([]int32, blocks),
		dataValid: make([]bool, blocks),
		sample:    sample,
		state:     seed | 1,
	}
	for i := blocks - 1; i >= 0; i-- {
		v.freeData = append(v.freeData, int32(i))
	}
	return v, nil
}

// Name identifies the design.
func (v *VWay) Name() string { return v.name }

// Blocks returns the data capacity in lines.
func (v *VWay) Blocks() int { return v.blocks }

// Ways returns the tag-set associativity.
func (v *VWay) Ways() int { return v.tagWays }

func (v *VWay) tagSlot(set uint64, way int) int { return int(set)*v.tagWays + way }

func (v *VWay) rand() uint64 {
	v.state = hash.Mix64(v.state)
	return v.state
}

// Lookup probes the line's tag set and follows the data pointer.
func (v *VWay) Lookup(line uint64) (repl.BlockID, bool) {
	set := v.idx.Hash(line)
	v.ctr.TagLookups++
	v.ctr.TagReads += uint64(v.tagWays)
	for w := 0; w < v.tagWays; w++ {
		t := v.tagSlot(set, w)
		if v.tagValid[t] && v.tagAddr[t] == line {
			return repl.BlockID(v.tagData[t]), true
		}
	}
	return 0, false
}

// Candidates returns a free data block if one exists; otherwise a global
// sample of data blocks — unless the line's tag set is full, which forces
// the local fallback (the set's own data blocks).
func (v *VWay) Candidates(line uint64, buf []Candidate) []Candidate {
	set := v.idx.Hash(line)
	freeTag := -1
	for w := 0; w < v.tagWays; w++ {
		t := v.tagSlot(set, w)
		if !v.tagValid[t] {
			freeTag = t
			break
		}
	}
	if freeTag >= 0 && len(v.freeData) > 0 {
		d := v.freeData[len(v.freeData)-1]
		return append(buf, Candidate{ID: repl.BlockID(d), Level: 1, Parent: -1})
	}
	if freeTag >= 0 {
		// Global replacement: sample data blocks.
		for i := 0; i < v.sample; i++ {
			d := int32(v.rand() % uint64(v.blocks))
			if !v.dataValid[d] {
				return append(buf, Candidate{ID: repl.BlockID(d), Level: 1, Parent: -1})
			}
			t := v.dataTag[d]
			buf = append(buf, Candidate{
				ID: repl.BlockID(d), Addr: v.tagAddr[t], Valid: true,
				Level: 1, Parent: -1,
			})
		}
		v.ctr.TagReads += uint64(v.sample) // reverse-pointer reads
		return buf
	}
	// Local fallback: the set's own blocks.
	v.LocalFallbacks++
	for w := 0; w < v.tagWays; w++ {
		t := v.tagSlot(set, w)
		buf = append(buf, Candidate{
			ID: repl.BlockID(v.tagData[t]), Addr: v.tagAddr[t], Valid: true,
			Way: w, Row: set, Level: 1, Parent: -1,
		})
	}
	return buf
}

// MaxCandidates returns the most candidates one Candidates call can yield:
// the global sample, or the tag set on local fallback.
func (v *VWay) MaxCandidates() int {
	if v.sample > v.tagWays {
		return v.sample
	}
	return v.tagWays
}

// Install evicts the victim data block (invalidating its owner tag) and
// wires line into a tag entry of its set pointing at that block.
func (v *VWay) Install(line uint64, cands []Candidate, victim int) ([]Move, error) {
	if victim < 0 || victim >= len(cands) {
		return nil, fmt.Errorf("cache: victim index %d out of range [0,%d)", victim, len(cands))
	}
	d := int32(cands[victim].ID)
	if cands[victim].Valid {
		old := v.dataTag[d]
		v.tagValid[old] = false
		v.ctr.TagWrites++
	} else if len(v.freeData) > 0 && v.freeData[len(v.freeData)-1] == d {
		v.freeData = v.freeData[:len(v.freeData)-1]
	}
	set := v.idx.Hash(line)
	target := -1
	for w := 0; w < v.tagWays; w++ {
		t := v.tagSlot(set, w)
		if !v.tagValid[t] {
			target = t
			break
		}
	}
	if target < 0 {
		// Local fallback victims come from this set, so their tag was
		// just freed; not finding one is a bookkeeping bug.
		return nil, fmt.Errorf("cache: v-way set %d has no free tag after eviction", set)
	}
	v.tagAddr[target] = line
	v.tagValid[target] = true
	v.tagData[target] = d
	v.dataTag[d] = int32(target)
	v.dataValid[d] = true
	v.ctr.TagWrites++
	v.ctr.DataWrites++
	return nil, nil
}

// Invalidate removes line if resident, freeing both its tag and data block.
func (v *VWay) Invalidate(line uint64) (repl.BlockID, bool) {
	set := v.idx.Hash(line)
	for w := 0; w < v.tagWays; w++ {
		t := v.tagSlot(set, w)
		if v.tagValid[t] && v.tagAddr[t] == line {
			d := v.tagData[t]
			v.tagValid[t] = false
			v.dataValid[d] = false
			v.freeData = append(v.freeData, d)
			v.ctr.TagWrites++
			return repl.BlockID(d), true
		}
	}
	return 0, false
}

// Counters exposes access accounting.
func (v *VWay) Counters() *Counters { return &v.ctr }
