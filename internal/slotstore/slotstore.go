// Package slotstore is zkv's cell store. One Store holds one shard's entries
// — a dense table of fixed 16-byte slot headers over a heap of size-classed
// extents that hold the entries' bytes — and is the shard's only copy of
// them: the mutex holder mutates it between Begin and End, lock-free readers
// probe it through a View and validate against the header's generation word,
// and a warm restart opens the same bytes again. A mutation touches the
// headers it changes and the one extent it writes: there is no index (the
// shard finds a key by hashing it to W slots, and so does a restart), and a
// relocation moves a header, not an entry.
//
// A header is two words. The first is the slot's zcache tag: Line of the
// entry's key fingerprint, or Empty. The slot table is therefore the shard's
// tag array, indexed the same way, and there is no other copy of it; a slot
// is resident exactly when its tag is not Empty. The second locates the
// slot's extent: its offset in words above its size class, zero when the
// slot has none. The extent's first word holds the entry's lengths,
// klen<<32|vlen, and the key and value words follow it.
//
// The backing is a mapped file, format "SLC4" (Create, Open), or Go-heap
// slabs (NewHeap). Either way the heap is an append-only list of segments
// behind a page directory: growth maps or allocates only the new range and
// nothing moves or is unmapped before Close, so an older View stays valid.
// The backings differ in where a segment comes from and in whether msync has
// anything to do, nowhere else.
//
// The file format is correct-or-retry, never silently wrong:
//
//   - A seqlock generation counter in the header (even = stable snapshot,
//     odd = write in progress) publishes the single writer's mutations.
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
//     length bounds against the extent's class and zero padding, tag-vs-key
//     agreement (Line of hash.Bytes64), an extent behind every resident
//     tag, and no tag resident in two slots. Anything torn or foreign
//     yields ErrNeedsRebuild or ErrInvalidFormat — never a store that could
//     serve a wrong value.
//
// There is no WAL and no salvage mode: the cache is throwaway, and the
// rebuild signal tells the caller to start cold. Durability of individual
// operations is only guaranteed after Checkpoint/Close; Config.SyncEveryOp
// trades throughput for per-operation msync. A persistence fault (a failed
// msync or growth, an injected write fault) detaches the store from its
// file: it serves and mutates the same memory, takes later segments from the
// Go heap, and never syncs or clean-marks the file again, so the next Open
// refuses it. Words are accessed natively, so on a big-endian host Open
// refuses every (little-endian) image and each boot is cold.
//
// Crash testing hooks: the failpoints "slotstore/create", "slotstore/msync",
// "slotstore/write" (a fault while writing an entry), "slotstore/grow"
// (file growth) and "slotstore/close" — see internal/failpoint.
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

	"zcache/internal/cache"
	"zcache/internal/failpoint"
	"zcache/internal/hash"
)

// ErrNeedsRebuild means the file is structurally SLC4 but cannot be proven
// safe to serve from — a dirty mark from a crashed writer, an odd (torn)
// generation, a truncated tail, or a slot table and heap that contradict
// each other. Callers delete the file and rebuild cold from the
// authoritative source.
var ErrNeedsRebuild = errors.New("slotstore: needs rebuild")

// ErrInvalidFormat means the file is not a compatible SLC4 image at all:
// wrong magic or version (SLC1, SLC2 and SLC3 files from older builds land
// here), a different hash.Bytes64 version, or a geometry stamp that does not
// match the caller's configuration. Callers delete the file and rebuild cold.
var ErrInvalidFormat = errors.New("slotstore: invalid format")

// Format constants. The header occupies one page so the slot table and the
// heap never share a page with the state machine fields.
const (
	// Magic identifies the format ("SLC4": SLC3's tag-first slot table,
	// each header cut to the tag and an extent locator, with the entry's
	// lengths moved into its extent).
	Magic = "SLC4"
	// FormatVersion is the on-disk layout version.
	FormatVersion = 4

	headerBytes = 4096
	slotBytes   = 16 // tag u64 | extent locator u64

	// Slot header field offsets. The tag is Line(fp) of the resident entry
	// or Empty. The locator is the slot's extent, offset/8<<classBits |
	// size class, or zero when the slot has none (no extent starts at
	// offset 0). A slot keeps its extent across tenants.
	slotTag = 0
	slotLoc = 8

	// classBits is the locator's size-class field, wide enough for every
	// class below numClasses.
	classBits = 7
	classMask = 1<<classBits - 1

	// maxExtentWords bounds one extent: a key and a value of up to 2^32-1
	// bytes each, in 8-byte words. numClasses follows from it (sizeClass).
	maxExtentWords = 1 << 30
	numClasses     = 8 + 4*27

	// heapBytesPerSlot sizes a fresh file's heap; growQuantum rounds every
	// later growth.
	heapBytesPerSlot = 64
	growQuantum      = 4096

	// The directory maps each 64 KiB page of the address space (file offsets,
	// for a file) to its segment. A heap-backed store grows a page at a time
	// (the Go heap counts a slab touched or not); an extent of bigExtent or
	// more gets a slab of exactly its own size.
	pageShift = 16
	pageBytes = 1 << pageShift
	bigExtent = pageBytes / 8
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

// Config stamps a store file with the geometry of the cache whose entries it
// holds. Every stamp field must match byte for byte at Open, or the file is
// ErrInvalidFormat: a slot array is only meaningful relative to the exact
// hash seeds and shard routing that produced it.
type Config struct {
	// Slots is the slot count — the cache's Blocks() (required).
	Slots int
	// SyncEveryOp forces an MS_SYNC msync of the mutated range after every
	// End(), bounding page-cache loss at a large throughput cost. The
	// clean/dirty contract holds either way.
	SyncEveryOp bool

	// Geometry stamp: the H3 seed, array shape, policy, and shard routing
	// of the zkv shard.
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

// locator packs an extent at byte offset off of size class class into a
// slot's second header word.
func locator(off, class int) uint64 { return uint64(off)>>3<<classBits | uint64(class) }

// located unpacks a non-zero locator: the extent's byte offset and class.
func located(loc uint64) (off, class int) {
	return int(loc>>classBits) << 3, int(loc & classMask)
}

// Empty is the tag of an empty slot: cache.EmptyLine, so that a zcache
// reading the slot table as its tag array sees no line there.
const Empty = cache.EmptyLine

// Line is the tag an entry whose key fingerprint is fp holds: fp, except
// that the one fingerprint equal to Empty shares its neighbour's tag. The
// stored key tells the two apart, so they alias like any fingerprint
// collision: a miss, never a wrong value.
func Line(fp uint64) uint64 {
	if fp == Empty {
		return fp - 1
	}
	return fp
}

// Fingerprint is the key fingerprint of a resident entry whose tag is tag
// and whose key is key: the tag itself, except for the tag two fingerprints
// share (Line), which only the key bytes settle.
func Fingerprint(tag uint64, key []byte) uint64 {
	if tag == Line(Empty) {
		return hash.Bytes64(key)
	}
	return tag
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

// directory maps a page of the address space to its segment from the page's
// first word on, which wholly contains every extent starting in the page.
// Growth publishes a longer directory and never edits a published one below
// its length.
type directory [][]atomic.Uint64

// paged appends to dir the n pages that start at w's first word.
func paged(dir directory, w []atomic.Uint64, n int) directory {
	for p := 0; p < n; p++ {
		dir = append(dir, w[p*pageBytes/8:])
	}
	return dir
}

// words returns the n words at byte offset off, or nil when the directory
// does not hold them all in one segment.
func (dir directory) words(off, n int) []atomic.Uint64 {
	p := off >> pageShift
	if p < 0 || p >= len(dir) {
		return nil
	}
	i := off & (pageBytes - 1) >> 3
	if w := dir[p]; n >= 0 && i+n <= len(w) {
		return w[i : i+n]
	}
	return nil
}

// slotAt is the index, in the header-and-slot-table words, of slot id's
// first header word.
func slotAt(id int) int { return headerBytes/8 + id*(slotBytes/8) }

// wordsOf views 8-aligned bytes as words.
func wordsOf(b []byte) []atomic.Uint64 {
	return unsafe.Slice((*atomic.Uint64)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/8)
}

// pagesFor is the number of directory pages n bytes span.
func pagesFor(n int) int { return (n + pageBytes - 1) >> pageShift }

// mapping is one mmap of the file: m[0] is the byte at file offset off.
type mapping struct {
	off int
	m   []byte
}

// Store is one shard's cells: a single writer (the owning zkv shard, under
// its mutex) and any number of lock-free readers. Mutations happen between
// Begin and End, which bracket them in the seqlock generation.
type Store struct {
	cfg Config
	// f is the backing file: nil for a heap-backed store and once a fault
	// has detached it — what msync, growth and the clean mark test.
	f *os.File
	// m is the file as mapped at open (validate and the header's byte
	// fields read it); maps is every mapping, unmapped at Close.
	m        []byte
	maps     []mapping
	heapBase int

	// hdr is the header page and the slot table (and, for a file, the heap
	// it was opened with), fixed for the store's life; only the writer
	// replaces dir, and Close empties it.
	hdr []atomic.Uint64
	dir atomic.Pointer[directory]

	// heapSize and heapUsed cache the header fields of the same names:
	// extents are carved from [heapUsed, heapSize), the file's tail — or,
	// without a file, the newest heap page.
	heapSize, heapUsed int
	// resident is the writer's count; End publishes it to residentPub when
	// it moved, so a full cache's evict-and-insert pays no atomic store.
	resident    int
	residentPub atomic.Int64
	detached    atomic.Bool

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

// NewHeap builds an empty heap-backed store: a shard's cells without a file.
func NewHeap(slots int) *Store {
	s := newStore(Config{Slots: slots}, make([]atomic.Uint64, heapBase(slots)/8))
	s.emptyTable()
	return s
}

// emptyTable writes Empty into every slot's tag: a new store's table, whose
// bytes are otherwise zero.
func (s *Store) emptyTable() {
	for id := 0; id < s.cfg.Slots; id++ {
		s.hdr[slotAt(id)+slotTag/8].Store(Empty)
	}
}

// newStore builds a store that so far is the one segment hdr.
func newStore(cfg Config, hdr []atomic.Uint64) *Store {
	s := &Store{cfg: cfg, heapBase: heapBase(cfg.Slots), hdr: hdr}
	dir := paged(nil, hdr, pagesFor(len(hdr)*8))
	s.dir.Store(&dir)
	return s
}

// mapped maps the size bytes of f as a store, or closes it.
func mapped(cfg Config, f *os.File, size int) (*Store, error) {
	m, err := mmapFile(f, 0, size)
	if err != nil {
		f.Close()
		return nil, err
	}
	s := newStore(cfg, wordsOf(m))
	s.f, s.m, s.maps = f, m, []mapping{{0, m}}
	return s, nil
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
	s, err := mapped(cfg, f, base+heap)
	if err != nil {
		return nil, err
	}
	m := s.m
	s.heapSize = heap
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
	s.emptyTable()
	s.setGen(0)
	s.setState(StateDirty)
	s.everDirtied = true
	if err := s.msync(0, headerBytes); err != nil {
		s.Close(false)
		return nil, err
	}
	s.dirtyDurable = true
	return s, nil
}

// Open maps an existing store file and validates it end to end. It returns
// a warm-usable store, or ErrNeedsRebuild (crashed writer, torn image,
// slot table and heap in contradiction), or ErrInvalidFormat (not a
// compatible SLC4 image for cfg), or a plain I/O error. It never panics on
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
	s, err := mapped(cfg, f, int(st.Size()))
	if err != nil {
		return nil, err
	}
	if err := s.validate(); err != nil {
		s.Close(false)
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
	// A locator's offset is in words, so only a free-list link can be
	// misaligned, and only a locator's class field can name no class.
	flaw := func(e extent) string {
		switch {
		case e.off%8 != 0:
			return "misaligned"
		case e.cap == 0:
			return "of no size class"
		case e.off < lo || e.off > hi || e.cap > hi-e.off:
			return "outside the heap"
		}
		return ""
	}
	exts := make([]extent, 0, cfg.Slots)
	resident := 0
	for id := 0; id < cfg.Slots; id++ {
		h := s.slot(id)
		tag, loc := le.Uint64(m[h+slotTag:]), le.Uint64(m[h+slotLoc:])
		if loc == 0 {
			if tag != Empty {
				return fmt.Errorf("%w: slot %d is resident without an extent", ErrNeedsRebuild, id)
			}
			continue
		}
		off, class := located(loc)
		e := extent{off: uint64(off)}
		if class < numClasses {
			e.cap = uint64(classWords(class)) * 8
		}
		if why := flaw(e); why != "" {
			return fmt.Errorf("%w: slot %d extent [%d, +%d) is %s (heap is [%d, %d))",
				ErrNeedsRebuild, id, e.off, e.cap, why, lo, hi)
		}
		exts = append(exts, e)
		if tag == Empty {
			continue
		}
		head := le.Uint64(m[off:])
		kl, vl := int(head>>32), int(head&math.MaxUint32)
		kw, vw := wordsFor(kl), wordsFor(vl)
		if kl < 1 || uint64(1+kw+vw)*8 > e.cap {
			return fmt.Errorf("%w: slot %d has key %d + val %d bytes in a %d-byte extent",
				ErrNeedsRebuild, id, kl, vl, e.cap)
		}
		off += 8
		if want := Line(hash.Bytes64(m[off : off+kl])); tag != want {
			return fmt.Errorf("%w: slot %d tag %#x does not match its key (%#x)",
				ErrNeedsRebuild, id, tag, want)
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
	// One tag in two slots would be one line resident twice in one cache.
	s.resident = resident
	s.residentPub.Store(int64(resident))
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

// deriveIndex builds the tag→slot map from the slot table. dup is the first
// slot whose tag an earlier slot already holds, or -1.
func (s *Store) deriveIndex() (index map[uint64]int32, dup int) {
	index, dup = make(map[uint64]int32, s.Resident()), -1
	s.Range(func(id int, fp uint64, _, _ []byte) bool {
		if _, seen := index[Line(fp)]; seen && dup < 0 {
			dup = id
		}
		index[Line(fp)] = int32(id)
		return true
	})
	return index, dup
}

// --- accessors ---

// Resident returns the resident slot count as of the last End (any goroutine).
func (s *Store) Resident() int { return int(s.residentPub.Load()) }

// Detached reports whether a persistence fault cut the store off its file.
func (s *Store) Detached() bool { return s.detached.Load() }

// Generation reads the seqlock counter (even = stable snapshot).
func (s *Store) Generation() uint64 { return s.hdr[offGeneration/8].Load() }

func (s *Store) setGen(v uint64) { s.hdr[offGeneration/8].Store(v) }

// State reads the file's lifecycle state.
func (s *Store) State() uint32 {
	return atomic.LoadUint32((*uint32)(unsafe.Pointer(&s.m[offState])))
}

func (s *Store) setState(v uint32) {
	atomic.StoreUint32((*uint32)(unsafe.Pointer(&s.m[offState])), v)
}

// slot returns the byte offset of slot id's header, header its two words.
func (s *Store) slot(id int) int { return headerBytes + id*slotBytes }

func (s *Store) header(id int) []atomic.Uint64 { return s.hdr[slotAt(id) : slotAt(id)+slotBytes/8] }

// msync flushes file bytes [off, off+n) with MS_SYNC through the mappings
// covering them, behind the "slotstore/msync" failpoint — if there is a file.
func (s *Store) msync(off, n int) error {
	if s.f == nil {
		return nil
	}
	if err := failpoint.Inject("slotstore/msync"); err != nil {
		return err
	}
	for _, mp := range s.maps {
		lo, hi := max(off, mp.off), min(off+n, mp.off+len(mp.m))
		if err := msyncRange(mp.m, lo-mp.off, hi-lo); err != nil {
			return err
		}
	}
	return nil
}

// detach gives the file up after a persistence fault. The mappings stay —
// they are the shard's cells — but nothing is synced or clean-marked again
// and later segments come from the Go heap: the file stays dirty on disk.
func (s *Store) detach() {
	if s.f != nil {
		s.f.Close()
		s.f = nil
		s.detached.Store(true)
	}
}

// --- extent heap ---

// alloc returns an extent of at least n words: the head of its class's free
// list, or fresh bytes off the carve window, growing the heap when that is
// spent. The free lists are threaded through the free extents' first words
// and headed in the header page, so allocator state costs the Go heap
// nothing and survives a clean restart. err is a failed file growth; the
// extent is good regardless.
func (s *Store) alloc(n int) (off, class int, err error) {
	class = sizeClass(n)
	capBytes := classWords(class) * 8
	head := &s.hdr[offFreeHeads/8+class]
	if off = int(head.Load()); off != 0 {
		head.Store(s.dir.Load().words(off, 1)[0].Load())
		return off, class, nil
	}
	if s.heapUsed+capBytes > s.heapSize {
		if off, err = s.grow(capBytes); off != 0 {
			return off, class, err
		}
	}
	off = s.heapBase + s.heapUsed
	s.heapUsed += capBytes
	s.hdr[offHeapUsed/8].Store(uint64(s.heapUsed))
	return off, class, err
}

// free pushes an extent onto its class's free list.
func (s *Store) free(off, class int) {
	head := &s.hdr[offFreeHeads/8+class]
	s.dir.Load().words(off, 1)[0].Store(head.Load())
	head.Store(uint64(off))
	s.dirty.add(off, 8)
}

// grow publishes a directory with room for an extent of need bytes: a longer
// file, or — without one, or when it cannot grow, which detaches it — a Go
// slab. A small extent's slab is a page that becomes the carve window; a big
// one's is its own size and off names it, the window staying put. Growth is
// inside a dirty session, so a crash in here reopens as ErrNeedsRebuild.
func (s *Store) grow(need int) (off int, err error) {
	dir := *s.dir.Load()
	if s.f != nil {
		if dir, err = s.growFile(dir, need); err != nil {
			s.detach()
		}
	}
	if s.f == nil {
		lo := len(dir) << pageShift
		if need >= bigExtent {
			off = lo
		} else {
			need = pageBytes
			s.heapUsed, s.heapSize = lo-s.heapBase, lo-s.heapBase+pageBytes
		}
		// In place: readers of the old directory stop at its length.
		dir = paged(dir, make([]atomic.Uint64, need/8), pagesFor(need))
	}
	s.dir.Store(&dir)
	return off, err
}

// growFile extends the file for need more heap bytes — at least doubling it
// — and maps the new range as one more segment. The mapping starts at the
// directory page holding the carve point, aliasing what older mappings show
// of it, so carving continues where it left off and each page from there on
// has one segment wholly containing its extents; the directory is copied up
// to that page, older Views keeping theirs. On error it returns dir as it was.
func (s *Store) growFile(dir directory, need int) (directory, error) {
	if err := failpoint.Inject("slotstore/grow"); err != nil {
		return dir, err
	}
	size := roundUp(max(2*s.heapSize, s.heapUsed+need), growQuantum)
	if err := s.f.Truncate(int64(s.heapBase + size)); err != nil {
		return dir, err
	}
	from := (s.heapBase + s.heapUsed) >> pageShift
	lo := from << pageShift
	m, err := mmapFile(s.f, lo, s.heapBase+size-lo)
	if err != nil {
		return dir, err
	}
	s.maps = append(s.maps, mapping{lo, m})
	s.heapSize = size
	s.hdr[offHeapSize/8].Store(uint64(size))
	return paged(dir[:from:from], wordsOf(m), pagesFor(len(m))), nil
}

// --- writer session ---

// Begin opens one mutation batch: it durably marks the file dirty if this
// session has not yet, then bumps the generation to odd. An error means the
// dirty mark could not be proven durable and the store has detached; the
// batch is open regardless — the cells are the shard's only copy.
func (s *Store) Begin() error {
	var err error
	if !s.dirtyDurable && s.f != nil {
		s.setState(StateDirty)
		s.everDirtied = true
		if err = s.msync(0, headerBytes); err != nil {
			s.detach()
		}
		s.dirtyDurable = err == nil
	}
	s.setGen(s.Generation() + 1)
	return err
}

// End closes the batch: generation back to even, and (in SyncEveryOp mode)
// an msync of the header page and the span mutated since the last sync.
func (s *Store) End() error {
	if int64(s.resident) != s.residentPub.Load() {
		s.residentPub.Store(int64(s.resident))
	}
	s.setGen(s.Generation() + 1)
	if !s.cfg.SyncEveryOp {
		return nil
	}
	d := s.dirty.take()
	err := s.msync(0, headerBytes)
	if err == nil && d.hi != 0 {
		err = s.msync(d.lo, d.hi-d.lo)
	}
	if err != nil {
		s.detach()
	}
	return err
}

// SetSlot writes (key, val) into slot id under tag Line(fp), fp being key's
// fingerprint, replacing any previous tenant: in the slot's own extent when
// the entry fits it, in a larger one otherwise. Every store is atomic —
// readers are concurrent. Only an out-of-bounds entry leaves written false;
// an error beside written is a persistence fault (a failed file growth, an
// injected write fault) that detached the store, with the entry in place.
// Call between Begin and End.
func (s *Store) SetSlot(id int, fp uint64, key, val []byte) (written bool, err error) {
	if len(key) < 1 || uint64(len(key)) > math.MaxUint32 || uint64(len(val)) > math.MaxUint32 {
		return false, fmt.Errorf("slotstore: key of %d and value of %d bytes outside the format's bounds", len(key), len(val))
	}
	h := s.header(id)
	s.index = nil
	s.dirty.add(s.slot(id), slotBytes)
	if h[slotTag/8].Load() == Empty {
		s.resident++
	}
	kw := wordsFor(len(key))
	n := 1 + kw + wordsFor(len(val))
	loc := h[slotLoc/8].Load()
	off, class := located(loc)
	if loc == 0 || classWords(class) < n {
		if loc != 0 {
			s.free(off, class)
		}
		off, class, err = s.alloc(n)
		h[slotLoc/8].Store(locator(off, class))
	}
	if s.f != nil { // still attached: alloc did not fail
		if err = failpoint.Eval("slotstore/write").Err; err != nil {
			s.detach()
		}
	}
	// The lengths, then key words, then value words, each zero-padded to a
	// whole word.
	w := s.dir.Load().words(off, n)
	w[0].Store(uint64(len(key))<<32 | uint64(len(val)))
	storeWords(w[1:], key)
	storeWords(w[1+kw:], val)
	h[slotTag/8].Store(Line(fp))
	s.dirty.add(off, n*8)
	return true, err
}

// ClearSlot empties slot id (eviction or deletion): one store of Empty into
// its tag. The slot keeps its extent for the next tenant. Must be called
// between Begin and End.
func (s *Store) ClearSlot(id int) {
	if t := &s.hdr[slotAt(id)+slotTag/8]; t.Load() != Empty {
		t.Store(Empty)
		s.resident--
		s.index = nil
		s.dirty.add(s.slot(id), 8)
	}
}

// MoveSlot follows a relocation: slot from's entry slides into slot to
// (which a preceding eviction or move vacated) by moving its tag and
// locator, and from takes over to's spare extent. A non-resident source
// clears the destination instead. Must be called between Begin and End.
func (s *Store) MoveSlot(from, to int) {
	f, d := s.header(from), s.header(to)
	if d[slotTag/8].Load() != Empty {
		// Defensive: the destination should already be vacated.
		s.resident--
	}
	spare := d[slotLoc/8].Load()
	d[slotTag/8].Store(f[slotTag/8].Load())
	d[slotLoc/8].Store(f[slotLoc/8].Load())
	f[slotTag/8].Store(Empty)
	f[slotLoc/8].Store(spare)
	s.index = nil
	s.dirty.add(s.slot(from), slotBytes)
	s.dirty.add(s.slot(to), slotBytes)
}

// storeWords writes b into w[:wordsFor(len(b))], zero-padding the last word.
func storeWords(w []atomic.Uint64, b []byte) {
	i := 0
	for ; len(b) >= 8; i, b = i+1, b[8:] {
		w[i].Store(binary.NativeEndian.Uint64(b))
	}
	if len(b) > 0 {
		w[i].Store(tailWord(b))
	}
}

// tailWord packs the last, partial word of a key or value, zero-padded.
func tailWord(b []byte) uint64 {
	var t [8]byte
	copy(t[:], b)
	return binary.NativeEndian.Uint64(t[:])
}

// wordsEqual reports whether w[:wordsFor(len(b))] holds b. The padding is
// always zero, so the partial last word compares whole.
func wordsEqual(w []atomic.Uint64, b []byte) bool {
	i := 0
	for ; len(b) >= 8; i, b = i+1, b[8:] {
		if w[i].Load() != binary.NativeEndian.Uint64(b) {
			return false
		}
	}
	return len(b) == 0 || w[i].Load() == tailWord(b)
}

// appendWords appends the n bytes packed in w[:wordsFor(n)] to dst, growing
// dst at most once.
func appendWords(dst []byte, w []atomic.Uint64, n int) []byte {
	if cap(dst)-len(dst) < n {
		dst = append(make([]byte, 0, len(dst)+n), dst...)
	}
	dst = dst[:len(dst)+n]
	out := dst[len(dst)-n:]
	i := 0
	for ; len(out) >= 8; i, out = i+1, out[8:] {
		binary.NativeEndian.PutUint64(out, w[i].Load())
	}
	if len(out) > 0 {
		var t [8]byte
		binary.NativeEndian.PutUint64(t[:], w[i].Load())
		copy(out, t[:])
	}
	return dst
}

// View is the store as of one moment: its words and the directory then in
// force. A lock-free reader takes one, notes Seq, probes, and trusts what it
// read only if Seq is still the same even number; the mutex holder needs no
// check. Growth never invalidates a View (it just cannot see later
// segments); Close does, and a View taken after it is Closed. It is two
// words so that it travels in registers: a by-value copy of the slices
// themselves cost a store-forwarding stall (~15 ns) at every use.
type View struct {
	s   *Store
	dir *directory
}

// View returns the store as it stands.
func (s *Store) View() View { return View{s, s.dir.Load()} }

// Closed reports a View taken after Close: it holds no slots.
func (v View) Closed() bool { return len(*v.dir) == 0 }

// Seq reads the seqlock generation (odd while a batch is open).
func (v View) Seq() uint64 { return v.s.hdr[offGeneration/8].Load() }

// Tag reads slot id's tag: Line(fp) of its entry, or Empty.
func (v View) Tag(id int) uint64 { return v.s.hdr[slotAt(id)+slotTag/8].Load() }

// match reports whether slot id holds key, and returns the value's words
// and length when it does. It reads the slot's locator, then the lengths at
// the head of its extent, and bounds them by the extent's class before it
// reads a key or value word. clean=false flags a slot this View cannot
// follow to whole words — an extent outside its directory, or lengths that
// overrun their extent: a torn window the lock-free caller retries; under
// the writer's mutex it cannot happen.
func (v View) match(id int, key []byte) (val []atomic.Uint64, vlen int, hit, clean bool) {
	w := v.extent(id)
	if w == nil {
		return nil, 0, false, false
	}
	head := w[0].Load()
	klen, vlen := int(head>>32), int(uint32(head))
	kw := wordsFor(klen)
	if 1+kw+wordsFor(vlen) > len(w) {
		return nil, 0, false, false
	}
	if klen != len(key) || !wordsEqual(w[1:], key) {
		return nil, 0, false, true
	}
	return w[1+kw:], vlen, true, true
}

// extent returns the words of slot id's extent, as many as its class holds,
// or nil when its locator names no class or an extent outside this View's
// directory.
func (v View) extent(id int) []atomic.Uint64 {
	off, class := located(v.s.hdr[slotAt(id)+slotLoc/8].Load())
	if class >= numClasses {
		return nil
	}
	return v.dir.words(off, classWords(class))
}

// Read appends slot id's value to dst if the slot holds key — the one
// compare-then-copy every Get runs — allocating only if dst lacks the room.
func (v View) Read(id int, key, dst []byte) (out []byte, hit, clean bool) {
	val, vlen, hit, clean := v.match(id, key)
	if !hit {
		return dst, false, clean
	}
	return appendWords(dst, val, vlen), true, true
}

// Tags returns the slot table as the shard's tag array, for the mutex
// holder's plain loads (cache.NewZCacheOver): slot id's tag is
// words[id*stride]. Only this Store writes the words — SetSlot, ClearSlot
// and MoveSlot, with atomic stores between Begin and End — and they stay put
// until Close.
func (s *Store) Tags() (words []uint64, stride int) {
	t := s.hdr[slotAt(0)+slotTag/8 : slotAt(s.cfg.Slots)]
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(t))), len(t)), slotBytes / 8
}

// Holds is the mutex holder's key check on slot id: the verification every
// fingerprint match needs before it counts.
func (s *Store) Holds(id int, key []byte) bool {
	_, _, hit, _ := s.View().match(id, key)
	return hit
}

// Entry returns resident slot id's key and value as views into its extent,
// valid until the next mutation: for the mutex holder only.
func (s *Store) Entry(id int) (key, val []byte) {
	w := s.View().extent(id)
	head := w[0].Load()
	kl, vl := int(head>>32), int(uint32(head))
	kw := wordsFor(kl)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&w[1])), (len(w)-1)*8)
	return b[:kl], b[kw*8 : kw*8+vl]
}

// Lookup finds the slot tagged Line(fp) and returns its Entry. There is no
// stored index: Lookup derives one from the slot table on first use after a
// mutation, wherever the tags were placed.
//
// Instrument-only: the shard finds a key by hashing it to its W slots, and
// nothing in this module calls Lookup outside tests. Its one caller is the
// benchmark module's slotstore.lookup_ns layer metric (bench/layers.go); it
// and the derived index leave with that metric when bench/ is next opened.
func (s *Store) Lookup(fp uint64) (key, val []byte, ok bool) {
	if s.index == nil {
		s.index, _ = s.deriveIndex()
	}
	if id, ok := s.index[Line(fp)]; ok {
		key, val = s.Entry(int(id))
	}
	return key, val, key != nil
}

// Range calls fn for every resident slot in slot order, with the key's
// fingerprint and key and val aliasing the store (copy before retaining).
// It stops early if fn returns false.
func (s *Store) Range(fn func(slot int, fp uint64, key, val []byte) bool) {
	v := s.View()
	for id := 0; id < s.cfg.Slots; id++ {
		tag := v.Tag(id)
		if tag == Empty {
			continue
		}
		if key, val := s.Entry(id); !fn(id, Fingerprint(tag, key), key, val) {
			return
		}
	}
}

// Checkpoint publishes a durable clean snapshot: data msync first, then
// the clean mark, then the header msync. A store without a file checkpoints
// trivially; a failure detaches it, with the mark back at dirty.
func (s *Store) Checkpoint() error {
	if s.f == nil {
		return nil
	}
	err := s.msync(0, s.heapBase+s.heapSize)
	if err == nil {
		s.dirty = span{}
		s.setState(StateClean)
		if err = s.msync(0, headerBytes); err == nil {
			// The file is clean on disk; the next mutation must re-mark it
			// dirty durably before touching slots.
			s.dirtyDurable, s.everDirtied = false, false
			return nil
		}
		s.setState(StateDirty)
	}
	s.detach()
	return err
}

// Close marks the store closed, so operations that start afterwards find no
// slots, then unmaps and closes the file. The caller must have quiesced
// every reader first: a View taken before Close points into memory that is
// gone. clean=true first checkpoints, so the next Open is warm; clean=false
// leaves the lifecycle state as-is (a dirtied session therefore reopens as
// ErrNeedsRebuild — the crash path). A session that never mutated the file
// leaves it bit-identical either way. The "slotstore/close" failpoint turns
// a clean close into a crashed one, for the chaos suite.
func (s *Store) Close(clean bool) error {
	if len(*s.dir.Load()) == 0 {
		return nil
	}
	var err error
	if e := failpoint.Inject("slotstore/close"); e != nil {
		err, clean = e, false
	}
	if clean && s.everDirtied {
		err = s.Checkpoint()
	}
	s.dir.Store(new(directory))
	for _, mp := range s.maps {
		if e := munmapFile(mp.m); e != nil && err == nil {
			err = e
		}
	}
	s.maps, s.m, s.hdr = nil, nil, nil
	if s.f != nil {
		if e := s.f.Close(); e != nil && err == nil {
			err = e
		}
		s.f = nil
	}
	return err
}
