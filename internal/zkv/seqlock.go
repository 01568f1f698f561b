package zkv

// Lock-free GETs. A shard's entries live once, in its slotstore.Store
// (cells): the mutex holder mutates them between the store's Begin and End,
// which hold its generation word odd, and everyone reads them through a
// slotstore.View. A reader hashes the fingerprint through the shard's own
// way functions, probes the slots, copies the value out, and re-checks the
// generation: if it moved, the window overlapped a mutation and the read
// retries, falling back to the mutex after seqlockRetries unstable windows so
// writers can never starve it. The mutex holder reads the same way and needs
// no check.
//
// A read hit must still touch the replacement ranking — that is what makes
// zkv's eviction decisions bit-identical to the simulator's. Ranking state
// is single-writer, so hits enqueue their line on a bounded MPMC ring
// instead of taking the lock; every locked section that consumes or advances
// the ranking first drains the ring FIFO and applies the deferred touches.
// In a sequential replay each touch lands, in order, before the next
// ranking-consuming operation — so ReplayEquiv stays bit-for-bit. When the
// ring is full the reader takes the mutex, drains, and applies its own touch
// inline: deferred, never dropped.

import (
	"runtime"
	"sync/atomic"

	"zcache/internal/repl"
	"zcache/internal/slotstore"
)

// seqlockRetries bounds optimistic read attempts before falling back to the
// mutex. Relocation chains hold the generation odd for microseconds at most;
// 16 retries with Gosched between them outlasts any single mutation.
const seqlockRetries = 16

// touchRingSize is the deferred-touch ring capacity (power of two). At 256,
// a drain amortizes to one Peek+Touch per GET — the same ranking work the
// locked path did — in batches.
const touchRingSize = 256

// lock takes the shard mutex and applies the deferred touches; once the
// store is closed it reports false, holding nothing.
func (sh *shard) lock() bool {
	sh.mu.Lock()
	if sh.cells.View().Closed() {
		sh.mu.Unlock()
		return false
	}
	sh.drainTouches()
	return true
}

// getLockFree is the Store.Get body: optimistic seqlock reads with a locked
// fallback. The value lands in dst (appended) only on a validated hit.
func (sh *shard) getLockFree(fp uint64, key, dst []byte) ([]byte, bool) {
	base, line := len(dst), slotstore.Line(fp)
	for attempt := 0; attempt < seqlockRetries; attempt++ {
		v := sh.cells.View()
		if v.Closed() {
			return dst, false
		}
		s1 := v.Seq()
		if s1&1 != 0 {
			runtime.Gosched()
			continue
		}
		out, slot, hit, collision, clean := sh.probe(v, fp, line, key, dst)
		if !clean || v.Seq() != s1 {
			dst = out[:base]
			continue
		}
		sh.gets.Add(1)
		if hit {
			sh.getHits.Add(1)
			sh.noteTouch(line, slot, key)
			return out, true
		}
		if collision {
			sh.collisions.Add(1)
		}
		sh.getMisses.Add(1)
		return out, false
	}
	sh.getLocked.Add(1)
	if !sh.lock() {
		return dst, false
	}
	dst, ok := sh.get(fp, key, dst)
	sh.mu.Unlock()
	return dst, ok
}

// probe hashes fp's line to its one slot per way and reads the slots' tags
// through v until one holds the line, then that slot's entry. It reports
// (dst', slot, hit, collision, clean); clean=false flags a slot whose extent
// v cannot follow (a torn window) that the caller must retry.
// A hit compares the key word by word and copies the value words straight
// into dst, whatever the key length: zero allocations when dst has capacity
// for the value, one otherwise.
func (sh *shard) probe(v slotstore.View, fp, line uint64, key, dst []byte) ([]byte, uint64, bool, bool, bool) {
	// The rows live on this reader's stack (only a store wider than any
	// the paper considers spills them to the heap) and are hashed as the
	// probe goes, so a hit pays for no way it did not read.
	var buf [8]uint64
	rows, ways := buf[:], sh.ix.Ways()
	if ways > len(buf) {
		rows = make([]uint64, ways)
	}
	for w, n := 0, 0; w < ways; w++ {
		if w == n {
			n = sh.ix.RowsFrom(w, line, rows)
		}
		if id := uint64(w)*sh.rowsPer + rows[w]; v.Tag(int(id)) == line {
			// A live slot with this fingerprint and another key is an
			// alias: a verified miss.
			out, hit, clean := v.Read(int(id), key, dst)
			return out, id, hit, clean && !hit, clean
		}
	}
	return dst, 0, false, false, true
}

// noteTouch records a validated read hit for the ranking. The fast path is a
// ring enqueue of (line, slot); a full ring means ~touchRingSize hits landed
// since the last write, so this reader pays the drain itself and applies its
// touch inline — deferred, never dropped.
func (sh *shard) noteTouch(line, slot uint64, key []byte) {
	if sh.touches.enqueue(line, uint32(slot)) {
		return
	}
	if !sh.lock() {
		return
	}
	if id, ok := sh.c.Peek(line); ok && sh.cells.Holds(int(id), key) {
		sh.c.Touch(id)
	}
	sh.mu.Unlock()
}

// drainTouches applies every queued read-hit touch in FIFO order. Caller
// holds the shard mutex. Each entry carries the slot the hit validated in,
// so revalidation is one tag read — the slot still holding that line —
// instead of a full re-hash-and-probe. An entry whose slot moved on (the
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
		line, id := c.line, repl.BlockID(c.id)
		r.deq.Store(pos + 1)
		c.seq.Store(pos + uint64(len(r.cells)))
		if held, ok := sh.arr.SlotLine(id); ok && held == line {
			sh.c.Touch(id)
		}
	}
}

// touchRing is a bounded MPMC queue of deferred touches, (line, slot) each
// (Vyukov's ticket ring). Producers are lock-free readers; the single
// consumer is whichever writer drains under the shard mutex. Each cell's seq
// ticket orders the handoff, so the plain fields are always published before
// they are read.
type touchRing struct {
	mask  uint64
	enq   atomic.Uint64
	deq   atomic.Uint64
	cells []touchCell
}

type touchCell struct {
	seq  atomic.Uint64
	line uint64
	id   uint32
}

func (r *touchRing) init(size int) {
	r.cells = make([]touchCell, size)
	r.mask = uint64(size - 1)
	for i := range r.cells {
		r.cells[i].seq.Store(uint64(i))
	}
}

// enqueue claims a cell and publishes (line, id), or reports false when the
// ring is full.
func (r *touchRing) enqueue(line uint64, id uint32) bool {
	for {
		pos := r.enq.Load()
		c := &r.cells[pos&r.mask]
		s := c.seq.Load()
		switch {
		case s == pos:
			if r.enq.CompareAndSwap(pos, pos+1) {
				c.line = line
				c.id = id
				c.seq.Store(pos + 1)
				return true
			}
		case s < pos:
			return false
		}
	}
}
