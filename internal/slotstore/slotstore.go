// Package slotstore is the persistence layer behind zkv's warm restart: a
// file-backed, mmap'd slot store, format "SLC2". One store file mirrors one
// zkv shard — a dense table of fixed 32-byte slot headers, indexed exactly
// like the shard's tag array, over a heap of size-classed extents that hold
// the entries' bytes — so the on-disk image tracks the in-memory cache slot
// for slot through eviction and relocation chains. A mutation touches the
// headers it changes and the one extent it writes, nothing else: there is
// no persisted index (the shard finds a key by hashing it to W slots, and
// so does a restart), and a relocation moves a header, not an entry.
//
// The format is correct-or-retry, never silently wrong:
//
//   - A seqlock generation counter in the header (even = stable snapshot,
//     odd = write in progress) publishes single-writer mutations to
//     multi-reader mmaps.
//   - A clean/dirty lifecycle state gates reopening. The dirty mark is
//     msync'd durably *before* the first mutation of a writer session, so
//     any crash — power loss, kill -9, torn page write, a half-finished
//     file growth — leaves a file that Open refuses with ErrNeedsRebuild.
//     Only a clean Close (or Checkpoint) marks the file clean again, after
//     its data is synced.
//   - Open validates the whole image under a stable even generation:
//     magic, version, hash version, geometry stamp, file size against the
//     header's heap size, every extent (slot-owned or free) in bounds,
//     aligned, of a legal size class and overlapping no other, per-entry
//     length bounds and zero padding, fingerprint-vs-key agreement
//     (hash.Bytes64), and no fingerprint resident in two slots. Anything
//     torn or foreign yields ErrNeedsRebuild or ErrInvalidFormat — never a
//     store that could serve a wrong value.
//
// There is no WAL and no salvage mode: the cache is throwaway, the
// authoritative data lives behind the cache, and the rebuild signal tells
// the caller to start cold. Durability of individual operations is only
// guaranteed after Checkpoint/Close; Config.SyncEveryOp trades throughput
// for per-operation msync.
//
// Crash testing hooks: the failpoints "slotstore/create", "slotstore/msync",
// "slotstore/write" (torn entry writes), "slotstore/grow" (file growth) and
// "slotstore/close" let the chaos suite prove the contract — see
// internal/failpoint.
package slotstore

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"os"
	"slices"
	"sync/atomic"
	"unsafe"

	"zcache/internal/failpoint"
	"zcache/internal/hash"
)

// ErrNeedsRebuild means the file is structurally SLC2 but cannot be proven
// safe to serve from — a dirty mark from a crashed writer, an odd (torn)
// generation, a truncated tail, or a slot table and heap that contradict
// each other. Callers delete the file and rebuild cold from the
// authoritative source.
var ErrNeedsRebuild = errors.New("slotstore: needs rebuild")

// ErrInvalidFormat means the file is not a compatible SLC2 image at all:
// wrong magic or version (an SLC1 file from an older build lands here), a
// different hash.Bytes64 version, or a geometry stamp that does not match
// the caller's configuration. Callers delete the file and rebuild cold.
var ErrInvalidFormat = errors.New("slotstore: invalid format")

// Format constants. The header occupies one page so the slot table and the
// heap never share a page with the state machine fields.
const (
	// Magic identifies the format ("SLC2": SLC1's state machine over a
	// dense slot table and a variable-length extent heap).
	Magic = "SLC2"
	// FormatVersion is the on-disk layout version.
	FormatVersion = 2

	headerBytes = 4096
	slotBytes   = 32 // fp u64 | meta u64 | extent offset u64 | extent capacity u64

	// Slot header field offsets. meta packs klen<<32|vlen like zkv's cells
	// and is zero iff the slot is not resident (live keys are at least one
	// byte); a slot keeps its extent across tenants.
	slotFP   = 0
	slotMeta = 8
	slotOff  = 16
	slotCap  = 24

	// maxExtentWords bounds one extent: a key and a value of up to 2^32-1
	// bytes each, in 8-byte words. numClasses follows from it (sizeClass).
	maxExtentWords = 1 << 30
	numClasses     = 8 + 4*27

	// heapBytesPerSlot sizes a fresh file's heap; growQuantum rounds every
	// later growth.
	heapBytesPerSlot = 64
	growQuantum      = 4096
)

// Lifecycle states (header field `state`).
const (
	// StateClean: the last checkpoint completed; the file may be opened
	// (subject to validation).
	StateClean uint32 = 0
	// StateInvalidated: terminal; the file must be recreated.
	StateInvalidated uint32 = 1
	// StateDirty: a writer session is (or was, if it crashed) mutating the
	// file; Open refuses it with ErrNeedsRebuild.
	StateDirty uint32 = 2
)

// Header field offsets.
const (
	offMagic       = 0   // [4]byte
	offVersion     = 4   // u32
	offState       = 8   // u32
	offHashVersion = 12  // u32
	offGeneration  = 16  // u64, 8-aligned for atomic access
	offSlots       = 24  // u64
	offHeapSize    = 32  // u64: heap capacity; file size = heap base + this
	offSeed        = 40  // u64
	offRows        = 48  // u64
	offWays        = 56  // u32
	offLevels      = 60  // u32
	offPolicy      = 64  // u32
	offShard       = 68  // u32
	offShardCount  = 72  // u32
	offGeomSum     = 80  // u64
	offHeapUsed    = 88  // u64: bytes carved off the heap so far
	offFreeHeads   = 128 // [numClasses]u64: first free extent per class, 0 = none
)

// Config stamps a store file with the geometry of the cache it mirrors.
// Every stamp field must match byte for byte at Open, or the file is
// ErrInvalidFormat: a slot array is only meaningful relative to the exact
// hash seeds and shard routing that produced it.
type Config struct {
	// Slots is the slot count — the mirrored cache's Blocks() (required).
	Slots int
	// SyncEveryOp forces an MS_SYNC msync of the mutated range after every
	// End(), bounding page-cache loss at a large throughput cost. The
	// clean/dirty contract holds either way.
	SyncEveryOp bool

	// Geometry stamp: the H3 seed, array shape, policy, and shard routing
	// of the mirrored zkv shard.
	Seed       uint64
	Ways       int
	Levels     int
	Rows       uint64
	Policy     uint32
	Shard      int
	ShardCount int
}

func (c Config) check() error {
	if c.Slots < 1 || c.Slots > 1<<28 {
		return fmt.Errorf("slotstore: slot count %d outside [1, 2^28]", c.Slots)
	}
	return nil
}

// geomSum folds every stamp-relevant field into one checksum, so a file
// whose individual fields were bit-flipped into a self-consistent-looking
// combination still fails fast.
func (c Config) geomSum() uint64 {
	h := hash.Mix64(uint64(c.Slots))
	h = hash.Mix64(h ^ c.Seed)
	h = hash.Mix64(h ^ uint64(c.Ways)<<32 ^ uint64(c.Levels))
	h = hash.Mix64(h ^ c.Rows)
	h = hash.Mix64(h ^ uint64(c.Policy))
	h = hash.Mix64(h ^ uint64(c.Shard)<<32 ^ uint64(c.ShardCount))
	h = hash.Mix64(h ^ uint64(hash.Bytes64Version))
	return h
}

// heapBase is the file offset of the heap: header page, then the slot table.
func heapBase(slots int) int { return headerBytes + slots*slotBytes }

func roundUp(n, q int) int { return (n + q - 1) / q * q }

// wordsFor is the number of 8-byte words n bytes occupy in an extent.
func wordsFor(n int) int { return (n + 7) >> 3 }

// sizeClass maps an extent that must hold n words (1 ≤ n ≤ maxExtentWords)
// to its size class: exact up to 8 words, then four classes per doubling,
// so an extent wastes under a quarter of itself.
func sizeClass(n int) int {
	if n <= 8 {
		return n - 1
	}
	shift := bits.Len(uint(n-1)) - 3
	return 4*shift + (n-1)>>shift // (n-1)>>shift is 4..7
}

// classWords is the capacity of a size class in words.
func classWords(class int) int {
	if class < 8 {
		return class + 1
	}
	return ((class-8)%4 + 5) << ((class-8)/4 + 1)
}

// Supported reports whether this platform has the mmap backend. On
// unsupported platforms Create and Open fail cleanly.
func Supported() bool { return supported }

// span is a half-open byte range [lo, hi) of the mapping; the zero value is
// empty (no mutable byte sits at offset 0).
type span struct{ lo, hi int }

// add widens the span to cover [off, off+n).
func (sp *span) add(off, n int) {
	if sp.hi == 0 {
		sp.lo, sp.hi = off, off+n
		return
	}
	sp.lo, sp.hi = min(sp.lo, off), max(sp.hi, off+n)
}

// take returns the span and resets it to empty.
func (sp *span) take() span {
	out := *sp
	*sp = span{}
	return out
}

// pageSpan returns the page-aligned range msync must flush to cover
// [off, off+n) of a size-byte mapping: the start rounds down to its page,
// the end is cut at the mapping.
func pageSpan(off, n, size, page int) (lo, hi int) {
	return off &^ (page - 1), min(off+n, size)
}

// Store is one open SLC2 file: a single writer (the owning zkv shard,
// under its mutex) and any number of mmap readers. Mutations happen
// between Begin and End, which bracket them in the seqlock generation.
type Store struct {
	path     string
	cfg      Config
	f        *os.File
	m        []byte
	heapBase int
	// heapSize and heapUsed cache the header fields of the same names.
	heapSize int
	heapUsed int
	resident int

	// index is Lookup's fingerprint→slot map, derived from the slot table
	// on demand and dropped by the next mutation. It is not part of the
	// file: the serving path never asks "where is fingerprint X".
	index map[uint64]int32

	// dirtyDurable records that this session's dirty mark has been
	// msync'd: the precondition for mutating the image (a crash after any
	// mutation must find a dirty file on disk).
	dirtyDurable bool
	// everDirtied lets a read-only session (Open, Range, Close) leave the
	// file bit-identical.
	everDirtied bool
	// dirty covers the slot-table and heap bytes mutated since the last
	// sync; End syncs it and the header page in SyncEveryOp mode.
	dirty span
}

// Create builds a fresh store file for cfg at path, replacing whatever was
// there. The new file is born dirty (an active writer owns it) and the
// dirty mark is synced before Create returns, so a crash at any later
// point yields ErrNeedsRebuild, not a half-written "clean" image.
func Create(path string, cfg Config) (*Store, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	if err := failpoint.Inject("slotstore/create"); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	base := heapBase(cfg.Slots)
	heap := roundUp(cfg.Slots*heapBytesPerSlot, growQuantum)
	if err := f.Truncate(int64(base + heap)); err != nil {
		f.Close()
		return nil, err
	}
	m, err := mmapFile(f, base+heap)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{path: path, cfg: cfg, f: f, m: m, heapBase: base, heapSize: heap}
	copy(m[offMagic:], Magic)
	le.PutUint32(m[offVersion:], FormatVersion)
	le.PutUint32(m[offHashVersion:], hash.Bytes64Version)
	le.PutUint64(m[offSlots:], uint64(cfg.Slots))
	le.PutUint64(m[offHeapSize:], uint64(heap))
	le.PutUint64(m[offSeed:], cfg.Seed)
	le.PutUint64(m[offRows:], cfg.Rows)
	le.PutUint32(m[offWays:], uint32(cfg.Ways))
	le.PutUint32(m[offLevels:], uint32(cfg.Levels))
	le.PutUint32(m[offPolicy:], cfg.Policy)
	le.PutUint32(m[offShard:], uint32(cfg.Shard))
	le.PutUint32(m[offShardCount:], uint32(cfg.ShardCount))
	le.PutUint64(m[offGeomSum:], cfg.geomSum())
	s.setGen(0)
	s.setState(StateDirty)
	s.everDirtied = true
	if err := s.msync(0, headerBytes); err != nil {
		s.unmapClose()
		return nil, err
	}
	s.dirtyDurable = true
	return s, nil
}

// Open maps an existing store file and validates it end to end. It returns
// a warm-usable store, or ErrNeedsRebuild (crashed writer, torn image,
// slot table and heap in contradiction), or ErrInvalidFormat (not a
// compatible SLC2 image for cfg), or a plain I/O error. It never panics on
// hostile bytes and never returns a store whose contents violate the
// format invariants.
//
// Open itself mutates nothing: a validated file that is then closed with
// Close(true) before any Begin stays bit-identical.
func Open(path string, cfg Config) (*Store, error) {
	if err := cfg.check(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < headerBytes {
		f.Close()
		return nil, fmt.Errorf("%w: %d-byte file is smaller than the header", ErrInvalidFormat, st.Size())
	}
	m, err := mmapFile(f, int(st.Size()))
	if err != nil {
		f.Close()
		return nil, err
	}
	s := &Store{path: path, cfg: cfg, f: f, m: m, heapBase: heapBase(cfg.Slots)}
	if err := s.validate(); err != nil {
		s.unmapClose()
		return nil, err
	}
	return s, nil
}

var le = binary.LittleEndian

// extent is one heap allocation as validate sees it: file offset and
// capacity in bytes.
type extent struct{ off, cap uint64 }

// validate is Open's whole-image check, run before the store is handed to
// a caller. Format and stamp mismatches are classified first; everything
// after runs on an image whose size the header vouches for.
func (s *Store) validate() error {
	m := s.m
	if string(m[offMagic:offMagic+4]) != Magic {
		return fmt.Errorf("%w: bad magic %q", ErrInvalidFormat, m[offMagic:offMagic+4])
	}
	if v := le.Uint32(m[offVersion:]); v != FormatVersion {
		return fmt.Errorf("%w: version %d (want %d)", ErrInvalidFormat, v, FormatVersion)
	}
	if v := le.Uint32(m[offHashVersion:]); v != hash.Bytes64Version {
		return fmt.Errorf("%w: hash version %d (this build fingerprints with version %d)",
			ErrInvalidFormat, v, hash.Bytes64Version)
	}
	cfg := s.cfg
	stamp := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"slots", le.Uint64(m[offSlots:]), uint64(cfg.Slots)},
		{"seed", le.Uint64(m[offSeed:]), cfg.Seed},
		{"rows", le.Uint64(m[offRows:]), cfg.Rows},
		{"ways", uint64(le.Uint32(m[offWays:])), uint64(cfg.Ways)},
		{"levels", uint64(le.Uint32(m[offLevels:])), uint64(cfg.Levels)},
		{"policy", uint64(le.Uint32(m[offPolicy:])), uint64(cfg.Policy)},
		{"shard", uint64(le.Uint32(m[offShard:])), uint64(cfg.Shard)},
		{"shard count", uint64(le.Uint32(m[offShardCount:])), uint64(cfg.ShardCount)},
		{"geometry sum", le.Uint64(m[offGeomSum:]), cfg.geomSum()},
	}
	for _, f := range stamp {
		if f.got != f.want {
			return fmt.Errorf("%w: %s %d does not match configuration (%d)",
				ErrInvalidFormat, f.name, f.got, f.want)
		}
	}
	heapSize, heapUsed := le.Uint64(m[offHeapSize:]), le.Uint64(m[offHeapUsed:])
	if len(m) < s.heapBase || heapSize != uint64(len(m)-s.heapBase) {
		return fmt.Errorf("%w: file is %d bytes, header says %d + a %d-byte heap (torn truncate?)",
			ErrNeedsRebuild, len(m), s.heapBase, heapSize)
	}
	if heapUsed > heapSize || heapUsed%8 != 0 {
		return fmt.Errorf("%w: %d bytes used of a %d-byte heap", ErrNeedsRebuild, heapUsed, heapSize)
	}
	switch st := s.State(); st {
	case StateClean:
	case StateDirty:
		return fmt.Errorf("%w: file is marked dirty (writer crashed mid-session)", ErrNeedsRebuild)
	case StateInvalidated:
		return fmt.Errorf("%w: file is invalidated", ErrNeedsRebuild)
	default:
		return fmt.Errorf("%w: unknown lifecycle state %d", ErrNeedsRebuild, st)
	}
	if g := s.Generation(); g%2 != 0 {
		return fmt.Errorf("%w: odd generation %d (torn publish)", ErrNeedsRebuild, g)
	}
	s.heapSize, s.heapUsed = int(heapSize), int(heapUsed)

	// Every extent the file names — a slot's or a free list's — must be a
	// legal allocation inside the carved part of the heap. Slot-owned ones
	// first, with their entries.
	lo, hi := uint64(s.heapBase), uint64(s.heapBase)+heapUsed
	flaw := func(e extent) string {
		w := int(e.cap / 8)
		if e.off%8 != 0 {
			return "misaligned"
		}
		if e.cap%8 != 0 || w < 1 || e.cap/8 > maxExtentWords || classWords(sizeClass(w)) != w {
			return "of no size class"
		}
		if e.off < lo || e.off > hi || e.cap > hi-e.off {
			return "outside the heap"
		}
		return ""
	}
	exts := make([]extent, 0, cfg.Slots)
	resident := 0
	for id := 0; id < cfg.Slots; id++ {
		h := s.slot(id)
		meta := le.Uint64(m[h+slotMeta:])
		e := extent{le.Uint64(m[h+slotOff:]), le.Uint64(m[h+slotCap:])}
		if e == (extent{}) {
			if meta != 0 {
				return fmt.Errorf("%w: slot %d is resident without an extent", ErrNeedsRebuild, id)
			}
			continue
		}
		if why := flaw(e); why != "" {
			return fmt.Errorf("%w: slot %d extent [%d, +%d) is %s (heap is [%d, %d))",
				ErrNeedsRebuild, id, e.off, e.cap, why, lo, hi)
		}
		exts = append(exts, e)
		if meta == 0 {
			continue
		}
		kl, vl := int(meta>>32), int(meta&math.MaxUint32)
		kw, vw := wordsFor(kl), wordsFor(vl)
		if kl < 1 || uint64(kw+vw)*8 > e.cap {
			return fmt.Errorf("%w: slot %d has key %d + val %d bytes in a %d-byte extent",
				ErrNeedsRebuild, id, kl, vl, e.cap)
		}
		off := int(e.off)
		fp := le.Uint64(m[h+slotFP:])
		if got := hash.Bytes64(m[off : off+kl]); got != fp {
			return fmt.Errorf("%w: slot %d fingerprint %#x does not match its key (%#x)",
				ErrNeedsRebuild, id, fp, got)
		}
		if !allZero(m[off+kl:off+kw*8]) || !allZero(m[off+kw*8+vl:off+(kw+vw)*8]) {
			return fmt.Errorf("%w: slot %d has non-zero padding", ErrNeedsRebuild, id)
		}
		resident++
	}
	// Free lists. Each distinct extent is at least 8 bytes of the carved
	// heap, so a walk that collects more than that many has looped.
	limit := len(exts) + int(heapUsed/8)
	for c := 0; c < numClasses; c++ {
		e := extent{le.Uint64(m[offFreeHeads+8*c:]), uint64(classWords(c)) * 8}
		for ; e.off != 0; e.off = le.Uint64(m[e.off:]) {
			if why := flaw(e); why != "" {
				return fmt.Errorf("%w: free list %d names an extent at %d that is %s", ErrNeedsRebuild, c, e.off, why)
			}
			if len(exts) >= limit {
				return fmt.Errorf("%w: free list %d loops", ErrNeedsRebuild, c)
			}
			exts = append(exts, e)
		}
	}
	slices.SortFunc(exts, func(a, b extent) int { return cmp.Compare(a.off, b.off) })
	for i := 1; i < len(exts); i++ {
		if p := exts[i-1]; p.off+p.cap > exts[i].off {
			return fmt.Errorf("%w: extents [%d, +%d) and [%d, +%d) overlap",
				ErrNeedsRebuild, p.off, p.cap, exts[i].off, exts[i].cap)
		}
	}
	// One fingerprint in two slots would adopt into two tags of one cache.
	s.resident = resident
	if _, dup := s.deriveIndex(); dup >= 0 {
		return fmt.Errorf("%w: slot %d repeats a fingerprint resident in an earlier slot", ErrNeedsRebuild, dup)
	}
	return nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// deriveIndex builds the fingerprint→slot map from the slot table. dup is
// the first slot whose fingerprint an earlier slot already holds, or -1.
func (s *Store) deriveIndex() (index map[uint64]int32, dup int) {
	index, dup = make(map[uint64]int32, s.resident), -1
	s.Range(func(id int, fp uint64, _, _ []byte) bool {
		if _, seen := index[fp]; seen && dup < 0 {
			dup = id
		}
		index[fp] = int32(id)
		return true
	})
	return index, dup
}

// --- accessors ---

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Resident returns the number of resident slots.
func (s *Store) Resident() int { return s.resident }

// Generation reads the seqlock counter (even = stable snapshot).
func (s *Store) Generation() uint64 {
	return atomic.LoadUint64((*uint64)(unsafe.Pointer(&s.m[offGeneration])))
}

func (s *Store) setGen(v uint64) {
	atomic.StoreUint64((*uint64)(unsafe.Pointer(&s.m[offGeneration])), v)
}

// State reads the lifecycle state.
func (s *Store) State() uint32 {
	return atomic.LoadUint32((*uint32)(unsafe.Pointer(&s.m[offState])))
}

func (s *Store) setState(v uint32) {
	atomic.StoreUint32((*uint32)(unsafe.Pointer(&s.m[offState])), v)
}

// slot returns the file offset of slot id's header.
func (s *Store) slot(id int) int { return headerBytes + id*slotBytes }

// msync flushes the page-aligned span covering m[off:off+n] with MS_SYNC,
// through the "slotstore/msync" failpoint.
func (s *Store) msync(off, n int) error {
	if err := failpoint.Inject("slotstore/msync"); err != nil {
		return err
	}
	return msyncRange(s.m, off, n)
}

// --- extent heap ---

// alloc returns an extent of at least n words: the head of its class's free
// list, or fresh bytes off the end of the heap, growing the file when the
// heap is full. The free lists are threaded through the free extents' first
// words and headed in the file header, so allocator state costs the Go heap
// nothing and survives a clean restart.
func (s *Store) alloc(n int) (off, capBytes int, err error) {
	class := sizeClass(n)
	capBytes = classWords(class) * 8
	head := offFreeHeads + 8*class
	if off = int(le.Uint64(s.m[head:])); off != 0 {
		copy(s.m[head:head+8], s.m[off:off+8])
		return off, capBytes, nil
	}
	if s.heapUsed+capBytes > s.heapSize {
		if err := s.grow(capBytes); err != nil {
			return 0, 0, err
		}
	}
	off = s.heapBase + s.heapUsed
	s.heapUsed += capBytes
	le.PutUint64(s.m[offHeapUsed:], uint64(s.heapUsed))
	return off, capBytes, nil
}

// free pushes an extent onto its class's free list.
func (s *Store) free(off, capBytes int) {
	head := offFreeHeads + 8*sizeClass(capBytes/8)
	copy(s.m[off:off+8], s.m[head:head+8])
	le.PutUint64(s.m[head:], uint64(off))
	s.dirty.add(off, 8)
}

// grow extends the file so the heap has room for need more bytes — at least
// doubling it — and remaps. Only the writer holds the mapping (the live
// shard serves from memory), so swapping s.m races nobody; callers must not
// keep slices of the old mapping across it. Growth happens inside a dirty
// session, so a crash anywhere in here reopens as ErrNeedsRebuild.
func (s *Store) grow(need int) error {
	if err := failpoint.Inject("slotstore/grow"); err != nil {
		return err
	}
	size := roundUp(max(2*s.heapSize, s.heapUsed+need), growQuantum)
	if err := s.f.Truncate(int64(s.heapBase + size)); err != nil {
		return err
	}
	m, err := mmapFile(s.f, s.heapBase+size)
	if err != nil {
		return err
	}
	old := s.m
	s.m, s.heapSize = m, size
	le.PutUint64(m[offHeapSize:], uint64(size))
	return munmapFile(old)
}

// --- writer session ---

// Begin opens one mutation batch: it durably marks the file dirty if this
// session has not yet, then bumps the generation to odd. A Begin error
// means the dirty mark could not be proven durable — the caller must not
// mutate the image (zkv detaches persistence for the shard and carries on
// memory-only; the file, still stale-but-clean or dirty, stays safe).
func (s *Store) Begin() error {
	if !s.dirtyDurable {
		s.setState(StateDirty)
		s.everDirtied = true
		if err := s.msync(0, headerBytes); err != nil {
			return err
		}
		s.dirtyDurable = true
	}
	s.setGen(s.Generation() + 1)
	return nil
}

// End closes the batch: generation back to even, and (in SyncEveryOp mode)
// an msync of the header page and of the span mutated since the last sync.
func (s *Store) End() error {
	s.setGen(s.Generation() + 1)
	if !s.cfg.SyncEveryOp {
		return nil
	}
	d := s.dirty.take()
	if err := s.msync(0, headerBytes); err != nil || d.hi == 0 {
		return err
	}
	return s.msync(d.lo, d.hi-d.lo)
}

// SetSlot writes (fp, key, val) into slot id, replacing any previous
// tenant: in the slot's own extent when the entry fits it, in a larger one
// otherwise. written reports whether the slot now names the entry. A
// non-nil error is an injected or real fault (a torn write, a failed file
// growth); the caller should stop persisting (the file is dirty, so a
// future Open rebuilds). Must be called between Begin and End.
func (s *Store) SetSlot(id int, fp uint64, key, val []byte) (written bool, err error) {
	if len(key) < 1 || uint64(len(key)) > math.MaxUint32 || uint64(len(val)) > math.MaxUint32 {
		return false, fmt.Errorf("slotstore: key of %d and value of %d bytes outside the format's bounds", len(key), len(val))
	}
	h := s.slot(id)
	s.index = nil
	s.dirty.add(h, slotBytes)
	if le.Uint64(s.m[h+slotMeta:]) != 0 {
		le.PutUint64(s.m[h+slotMeta:], 0)
		s.resident--
	}
	act := failpoint.Eval("slotstore/write")
	if act.Mode == failpoint.Error {
		return false, act.Err
	}
	kw, vw := wordsFor(len(key)), wordsFor(len(val))
	off, capBytes := int(le.Uint64(s.m[h+slotOff:])), int(le.Uint64(s.m[h+slotCap:]))
	if (kw+vw)*8 > capBytes {
		if capBytes != 0 {
			s.free(off, capBytes)
		}
		if off, capBytes, err = s.alloc(kw + vw); err != nil {
			le.PutUint64(s.m[h+slotOff:], 0)
			le.PutUint64(s.m[h+slotCap:], 0)
			return false, err
		}
		le.PutUint64(s.m[h+slotOff:], uint64(off))
		le.PutUint64(s.m[h+slotCap:], uint64(capBytes))
	}
	vlen := len(val)
	if act.Mode == failpoint.Torn && act.Truncate < vlen {
		// Simulate a torn page write: the value's tail never reaches the
		// extent, but the header claims it did. The session's dirty mark is
		// what keeps this from ever being served.
		vlen -= act.Truncate
	}
	// Key words, then value words, each zero-padded to a whole word: the
	// layout of a zkv cell.
	m := s.m
	voff := off + kw*8
	copy(m[off:], key)
	clear(m[off+len(key) : voff])
	copy(m[voff:], val[:vlen])
	clear(m[voff+len(val) : voff+vw*8])
	le.PutUint64(m[h+slotFP:], fp)
	le.PutUint64(m[h+slotMeta:], uint64(len(key))<<32|uint64(len(val)))
	s.resident++
	s.dirty.add(off, (kw+vw)*8)
	if act.Mode == failpoint.Torn {
		return true, act.Err
	}
	return true, nil
}

// ClearSlot empties slot id (eviction or deletion): one header store. The
// slot keeps its extent for the next tenant. Must be called between Begin
// and End.
func (s *Store) ClearSlot(id int) {
	h := s.slot(id)
	if le.Uint64(s.m[h+slotMeta:]) == 0 {
		return
	}
	le.PutUint64(s.m[h+slotMeta:], 0)
	s.resident--
	s.index = nil
	s.dirty.add(h, slotBytes)
}

// MoveSlot mirrors a relocation: slot from's entry slides into slot to
// (which a preceding eviction or move vacated) by moving its header, and
// from takes over to's spare extent. A non-resident source clears the
// destination instead. Must be called between Begin and End.
func (s *Store) MoveSlot(from, to int) {
	f, t := s.slot(from), s.slot(to)
	m := s.m
	if le.Uint64(m[t+slotMeta:]) != 0 {
		// Defensive: the destination should already be vacated.
		s.resident--
	}
	var spare [16]byte
	copy(spare[:], m[t+slotOff:t+slotBytes])
	copy(m[t:t+slotBytes], m[f:f+slotBytes])
	le.PutUint64(m[f+slotMeta:], 0)
	copy(m[f+slotOff:f+slotBytes], spare[:])
	s.index = nil
	s.dirty.add(f, slotBytes)
	s.dirty.add(t, slotBytes)
}

// entry returns the key and value of the resident slot whose header sits at
// h, as views into the mapping.
func (s *Store) entry(h int) (key, val []byte) {
	meta := le.Uint64(s.m[h+slotMeta:])
	kl, vl := int(meta>>32), int(meta&math.MaxUint32)
	off := int(le.Uint64(s.m[h+slotOff:]))
	voff := off + wordsFor(kl)*8
	return s.m[off : off+kl], s.m[voff : voff+vl]
}

// Lookup finds fp's slot and returns views into its mapped extent (valid
// until the next mutation). The file stores no index: Lookup derives one
// from the slot table on first use after a mutation, wherever the
// fingerprints were placed. Intended for tools and tests; the live shard
// serves from memory.
func (s *Store) Lookup(fp uint64) (key, val []byte, ok bool) {
	if s.index == nil {
		s.index, _ = s.deriveIndex()
	}
	id, ok := s.index[fp]
	if !ok {
		return nil, nil, false
	}
	key, val = s.entry(s.slot(int(id)))
	return key, val, true
}

// Range calls fn for every resident slot in slot order, with key and val
// aliasing the mapped file (copy before retaining). It stops early if fn
// returns false.
func (s *Store) Range(fn func(slot int, fp uint64, key, val []byte) bool) {
	for id := 0; id < s.cfg.Slots; id++ {
		h := s.slot(id)
		if le.Uint64(s.m[h+slotMeta:]) == 0 {
			continue
		}
		key, val := s.entry(h)
		if !fn(id, le.Uint64(s.m[h+slotFP:]), key, val) {
			return
		}
	}
}

// Checkpoint publishes a durable clean snapshot: data msync first, then
// the clean mark, then the header msync. On error the in-memory state
// reverts to dirty and the next Begin re-proves the dirty mark durable.
func (s *Store) Checkpoint() error {
	if err := s.msync(0, len(s.m)); err != nil {
		return err
	}
	s.dirty = span{}
	s.setState(StateClean)
	if err := s.msync(0, headerBytes); err != nil {
		s.setState(StateDirty)
		s.dirtyDurable = false
		return err
	}
	// The file is clean on disk; the next mutation must re-mark it dirty
	// durably before touching slots.
	s.dirtyDurable = false
	s.everDirtied = false
	return nil
}

// Close unmaps and closes the file. clean=true first checkpoints, so the
// next Open is warm; clean=false leaves the lifecycle state as-is (a
// dirtied session therefore reopens as ErrNeedsRebuild — the crash path).
// A session that never mutated the file leaves it bit-identical either
// way. The "slotstore/close" failpoint turns a clean close into a crashed
// one, for the chaos suite.
func (s *Store) Close(clean bool) error {
	if s.m == nil {
		return nil
	}
	var err error
	if e := failpoint.Inject("slotstore/close"); e != nil {
		err, clean = e, false
	}
	if clean && s.everDirtied {
		if e := s.Checkpoint(); e != nil && err == nil {
			err = e
		}
	}
	if e := s.unmapClose(); e != nil && err == nil {
		err = e
	}
	return err
}

func (s *Store) unmapClose() error {
	err := munmapFile(s.m)
	s.m = nil
	if e := s.f.Close(); e != nil && err == nil {
		err = e
	}
	return err
}
