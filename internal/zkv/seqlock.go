package zkv

// The cell store and lock-free GETs. Each shard keeps one cell per slot
// (rcells) — the shard's only in-memory copy of an entry, written by the
// mutex holder and read by everyone — plus a sequence counter (seq) that
// writers bump to odd before mutating and back to even after, exactly the
// protocol internal/slotstore uses on disk. A reader hashes the fingerprint
// through the shard's own way functions, probes the cells directly, copies
// the value out, and then re-checks seq: if it moved, the window overlapped
// a mutation and the read retries. After seqlockRetries unstable windows the
// reader falls back to the mutex path, so writers can never starve readers
// into spinning forever. Code that holds the mutex reads the same cells with
// the same atomic loads; nothing can change under it, so it needs no seq
// check.
//
// A read hit must still touch the replacement ranking — that is what makes
// zkv's eviction decisions bit-identical to the simulator's. Ranking state
// is single-writer, so hits enqueue their fingerprint on a bounded MPMC ring
// (Vyukov-style ticket ring) instead of taking the lock; every locked
// section that consumes or advances the ranking (Set, Delete, the locked Get
// fallback) first drains the ring FIFO and applies the deferred touches.
// In a sequential replay this reproduces the old locked schedule exactly:
// each touch lands, in order, before the next ranking-consuming operation —
// so ReplayEquiv stays bit-for-bit. When the ring is full the reader takes
// the mutex, drains, and applies its own touch inline rather than dropping
// it, which bounds ring memory without ever losing a ranking event.

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"

	"zcache/internal/repl"
)

// seqlockRetries bounds optimistic read attempts before falling back to the
// mutex. Relocation chains hold seq odd for microseconds at most; 16 retries
// with Gosched between them outlasts any single mutation.
const seqlockRetries = 16

// touchRingSize is the deferred-touch ring capacity (power of two). At 256,
// a drain amortizes to one Peek+Touch per GET — the same ranking work the
// locked path did — in batches.
const touchRingSize = 256

// rcell is one slot's entry. meta packs klen<<32|vlen and is zero iff the
// slot is dead (live keys are at least one byte). words holds the key, then
// the value, each zero-padded to a whole number of little-endian 64-bit
// words, so the value always starts on a word:
//
//	words  | key: ⌈klen/8⌉ words | value: ⌈vlen/8⌉ words | spare … |
//	bytes    k0 … k(klen-1) 0…0    v0 … v(vlen-1) 0…0
//
// The buffer is reused in place and republished only on growth, so
// steady-state writes allocate nothing. Readers that observe a half-written
// cell are rejected by the seq re-check, but every access is an atomic op,
// so no schedule is a data race.
type rcell struct {
	fp    atomic.Uint64
	meta  atomic.Uint64
	words atomic.Pointer[[]atomic.Uint64]
}

// cellLens unpacks a meta word.
func cellLens(meta uint64) (klen, vlen int) { return int(meta >> 32), int(meta & 0xffffffff) }

// wordsFor is the number of words n bytes occupy in a cell.
func wordsFor(n int) int { return (n + 7) >> 3 }

// tailWord packs the last, partial word of a key or value, zero-padded.
func tailWord(b []byte) uint64 {
	var t [8]byte
	copy(t[:], b)
	return binary.LittleEndian.Uint64(t[:])
}

// storeWords writes b into w[:wordsFor(len(b))].
func storeWords(w []atomic.Uint64, b []byte) {
	i := 0
	for ; len(b) >= 8; i, b = i+1, b[8:] {
		w[i].Store(binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		w[i].Store(tailWord(b))
	}
}

// wordsEqual reports whether w[:wordsFor(len(b))] holds b. The padding is
// always zero, so the partial last word compares whole.
func wordsEqual(w []atomic.Uint64, b []byte) bool {
	i := 0
	for ; len(b) >= 8; i, b = i+1, b[8:] {
		if w[i].Load() != binary.LittleEndian.Uint64(b) {
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
		binary.LittleEndian.PutUint64(out, w[i].Load())
	}
	if len(out) > 0 {
		var t [8]byte
		binary.LittleEndian.PutUint64(t[:], w[i].Load())
		copy(out, t[:])
	}
	return dst
}

// publishCell writes (fp, key, val) into slot id. Caller holds the shard
// mutex with seq odd (or is single-threaded at Open).
func (sh *shard) publishCell(id repl.BlockID, fp uint64, key, val []byte) {
	c := &sh.rcells[id]
	kw := wordsFor(len(key))
	nw := kw + wordsFor(len(val))
	p := c.words.Load()
	var w []atomic.Uint64
	if p != nil && len(*p) >= nw {
		w = *p
	} else {
		// Grow with headroom like append, and publish the full-capacity
		// slice so identity only changes when the buffer does.
		size := nw
		if p != nil && 2*len(*p) > size {
			size = 2 * len(*p)
		}
		fresh := make([]atomic.Uint64, size)
		w = fresh
		c.words.Store(&fresh)
	}
	storeWords(w, key)
	storeWords(w[kw:], val)
	c.fp.Store(fp)
	c.meta.Store(uint64(len(key))<<32 | uint64(len(val)))
}

// killCell marks slot id dead; its buffer stays for the next tenant.
func (sh *shard) killCell(id repl.BlockID) {
	sh.rcells[id].meta.Store(0)
}

// moveCell follows a relocation: to inherits from's entry and from goes
// dead, taking the displaced buffer for reuse.
func (sh *shard) moveCell(from, to repl.BlockID) {
	cf, ct := &sh.rcells[from], &sh.rcells[to]
	pf, pt := cf.words.Load(), ct.words.Load()
	cf.words.Store(pt)
	ct.words.Store(pf)
	ct.fp.Store(cf.fp.Load())
	ct.meta.Store(cf.meta.Load())
	cf.meta.Store(0)
}

// match reports whether the cell, whose meta word the caller loaded, holds
// key, and returns the value's words when it does. clean=false flags a meta
// word and a buffer that disagree — a torn window the lock-free caller must
// retry; under the shard mutex it cannot happen.
func (c *rcell) match(meta uint64, key []byte) (val []atomic.Uint64, hit, clean bool) {
	klen, vlen := cellLens(meta)
	if klen != len(key) {
		return nil, false, true
	}
	kw := wordsFor(klen)
	p := c.words.Load()
	if p == nil || len(*p) < kw+wordsFor(vlen) {
		return nil, false, false
	}
	w := *p
	if !wordsEqual(w, key) {
		return nil, false, true
	}
	return w[kw:], true, true
}

// read appends the cell's value to dst if the cell holds key: the one
// compare-then-copy every Get runs, lock-free or locked.
func (c *rcell) read(meta uint64, key, dst []byte) (out []byte, hit, clean bool) {
	val, hit, clean := c.match(meta, key)
	if !hit {
		return dst, false, clean
	}
	_, vlen := cellLens(meta)
	return appendWords(dst, val, vlen), true, true
}

// holdsKey is the mutex holder's key check on a slot the tag array says is
// live: the verification every fingerprint match needs before it counts.
func (sh *shard) holdsKey(id repl.BlockID, key []byte) bool {
	c := &sh.rcells[id]
	_, hit, _ := c.match(c.meta.Load(), key)
	return hit
}

// entry decodes slot id's key and value into buf, which is returned for
// reuse. Caller holds the shard mutex and knows the slot is live.
func (sh *shard) entry(id repl.BlockID, buf []byte) (key, val, scratch []byte) {
	c := &sh.rcells[id]
	klen, vlen := cellLens(c.meta.Load())
	w := *c.words.Load()
	buf = appendWords(buf[:0], w, klen)
	buf = appendWords(buf, w[wordsFor(klen):], vlen)
	return buf[:klen], buf[klen:], buf
}

// getLockFree is the Store.Get body: optimistic seqlock reads with a locked
// fallback. The value lands in dst (appended) only on a validated hit.
func (sh *shard) getLockFree(fp uint64, key, dst []byte) ([]byte, bool) {
	base := len(dst)
	for attempt := 0; attempt < seqlockRetries; attempt++ {
		s1 := sh.seq.Load()
		if s1&1 != 0 {
			runtime.Gosched()
			continue
		}
		out, slot, hit, collision, clean := sh.probeCells(fp, key, dst)
		if !clean || sh.seq.Load() != s1 {
			dst = out[:base]
			continue
		}
		sh.gets.Add(1)
		if hit {
			sh.getHits.Add(1)
			sh.noteTouch(fp, slot, key)
			return out, true
		}
		if collision {
			sh.collisions.Add(1)
		}
		sh.getMisses.Add(1)
		return out, false
	}
	sh.getLocked.Add(1)
	sh.mu.Lock()
	sh.drainTouches()
	dst, ok := sh.get(fp, key, dst)
	sh.mu.Unlock()
	return dst, ok
}

// probeCells hashes fp to its one slot per way and reads the cells. It
// reports (dst', slot, hit, collision, clean); clean=false flags an
// internally inconsistent cell (a torn window) that the caller must retry.
// A hit compares the key word by word and copies the value words straight
// into dst, whatever the key length: zero allocations when dst has capacity
// for the value, one otherwise.
func (sh *shard) probeCells(fp uint64, key, dst []byte) ([]byte, uint64, bool, bool, bool) {
	var c *rcell
	var meta, slot uint64
	if sh.ws4 != nil {
		var rows [4]uint64
		sh.ws4.Rows4(fp, rows[:])
		for w := uint64(0); w < 4; w++ {
			id := w*sh.rowsPer + rows[w]
			cand := &sh.rcells[id]
			if cand.fp.Load() == fp {
				if m := cand.meta.Load(); m != 0 {
					c, meta, slot = cand, m, id
					break
				}
			}
		}
	} else {
		for w, fn := range sh.rfns {
			id := uint64(w)*sh.rowsPer + fn.Hash(fp)
			cand := &sh.rcells[id]
			if cand.fp.Load() == fp {
				if m := cand.meta.Load(); m != 0 {
					c, meta, slot = cand, m, id
					break
				}
			}
		}
	}
	if c == nil {
		return dst, 0, false, false, true
	}
	// A live cell with this fingerprint and another key is an alias: a
	// verified miss.
	out, hit, clean := c.read(meta, key, dst)
	return out, slot, hit, clean && !hit, clean
}

// noteTouch records a validated read hit for the ranking. The fast path is a
// ring enqueue of (fp, slot); a full ring means ~touchRingSize hits landed
// since the last write, so this reader pays the drain itself and applies its
// touch inline — deferred, never dropped.
func (sh *shard) noteTouch(fp, slot uint64, key []byte) {
	if sh.touches.enqueue(fp, uint32(slot)) {
		return
	}
	sh.mu.Lock()
	sh.drainTouches()
	if id, ok := sh.c.Peek(fp); ok && sh.holdsKey(id, key) {
		sh.c.Touch(id, false)
	}
	sh.mu.Unlock()
}

// drainTouches applies every queued read-hit touch in FIFO order. Caller
// holds the shard mutex. Each entry carries the slot the hit validated in,
// so revalidation is one tag read — the slot still holding that fingerprint
// — instead of a full re-hash-and-probe. An entry whose slot moved on (the
// key was evicted or relocated since it was queued) is skipped: the ranking
// event belongs to a cell that no longer holds the key.
func (sh *shard) drainTouches() {
	r := &sh.touches
	for {
		pos := r.deq.Load()
		c := &r.cells[pos&r.mask]
		if c.seq.Load() != pos+1 {
			return
		}
		fp, id := c.fp, repl.BlockID(c.id)
		r.deq.Store(pos + 1)
		c.seq.Store(pos + uint64(len(r.cells)))
		if line, ok := sh.arr.SlotLine(id); ok && line == fp {
			sh.c.Touch(id, false)
		}
	}
}

// touchRing is a bounded MPMC queue of deferred touch fingerprints
// (Vyukov's ticket ring). Producers are lock-free readers; the single
// consumer is whichever writer drains under the shard mutex. Each cell's seq
// ticket orders the handoff, so the plain fp field is always published
// before it is read.
type touchRing struct {
	mask  uint64
	enq   atomic.Uint64
	deq   atomic.Uint64
	cells []touchCell
}

type touchCell struct {
	seq atomic.Uint64
	fp  uint64
	id  uint32
}

func (r *touchRing) init(size int) {
	r.cells = make([]touchCell, size)
	r.mask = uint64(size - 1)
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
}

// enqueue claims a cell and publishes (fp, id), or reports false when the
// ring is full.
func (r *touchRing) enqueue(fp uint64, id uint32) bool {
	for {
		pos := r.enq.Load()
		c := &r.cells[pos&r.mask]
		s := c.seq.Load()
		switch {
		case s == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.fp = fp
				c.id = id
				c.seq.Store(pos + 1)
				return true
			}
		case s < pos:
			return false
		}
	}
}
