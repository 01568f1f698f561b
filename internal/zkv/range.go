package zkv

import (
	"zcache/internal/slotstore"
	"zcache/internal/zkvproto"
)

// Cluster range hooks: the store-side half of live resharding. A resharding
// source streams its arc out via MigrateRange (paged, served under brief
// per-shard locks so the store keeps serving), and drops the arc via
// ForgetRange once the drain controller has flipped routing. Both walk the
// slot arrays directly — the same cells the serving path uses — so the
// handoff needs no shadow index. A key's ring point is its fingerprint's, so
// both take the fingerprint from the key where the tag cannot tell it
// (slotstore.Fingerprint).

// MigrateRange appends wire-encoded migrate entries (see zkvproto/migrate.go)
// for resident keys whose ring point lies in the arc (start, end], scanning
// globally slot-ordered from cursor. It stops once the appended entry bytes
// reach maxBytes (always emitting at least one entry per call while any
// remain), and returns the cursor to resume from — 0 when the scan is done,
// which is at once on a closed store.
//
// The scan is a point-in-time slot sweep, not a snapshot: entries relocated
// by concurrent writes can be missed or repeated across pages. The resharding
// protocol tolerates both (delta pass + version-stamped last-writer-wins).
func (s *Store) MigrateRange(start, end, cursor uint64, maxBytes int, dst []byte) (out []byte, next uint64, count int) {
	blocks := uint64(s.cfg.Ways) * s.cfg.Rows
	total := uint64(s.cfg.Shards) * blocks
	base := len(dst)
	for gi := cursor; gi < total; {
		si := int(gi / blocks)
		sh := s.shards[si]
		segEnd := (uint64(si) + 1) * blocks
		if !sh.lock() {
			return dst, 0, count
		}
		v := sh.cells.View()
		for ; gi < segEnd; gi++ {
			id := int(gi % blocks)
			tag := v.Tag(id)
			if tag == slotstore.Empty {
				continue
			}
			key, val := sh.cells.Entry(id)
			if !zkvproto.InArc(zkvproto.RingPoint(slotstore.Fingerprint(tag, key)), start, end) {
				continue
			}
			if count > 0 && len(dst)-base+zkvproto.MigrateEntrySize(len(key), len(val)) > maxBytes {
				sh.mu.Unlock()
				return dst, gi, count
			}
			dst = zkvproto.AppendMigrateEntry(dst, key, val)
			count++
		}
		sh.mu.Unlock()
	}
	return dst, 0, count
}

// ForgetRange invalidates every resident key whose ring point lies in the
// arc (start, end], returning how many were dropped. Drops are handoffs, not
// demand evictions: they bypass the eviction counters and the evict hook,
// and each shard's batch publishes through the cell store exactly like a
// Delete. A closed store drops nothing.
func (s *Store) ForgetRange(start, end uint64) (dropped int) {
	var lines []uint64
	for _, sh := range s.shards {
		if !sh.lock() {
			return dropped
		}
		lines = lines[:0]
		sh.cells.Range(func(_ int, fp uint64, _, _ []byte) bool {
			if zkvproto.InArc(zkvproto.RingPoint(fp), start, end) {
				lines = append(lines, slotstore.Line(fp))
			}
			return true
		})
		if len(lines) > 0 {
			sh.invalidate(lines...)
			dropped += len(lines)
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Checkpoint publishes a durable clean snapshot of every shard file (data
// msync, then the clean mark) without closing the store. A resharding source
// calls this after ForgetRange so its on-disk image reflects the handed-off
// state; a store without persistence checkpoints trivially. A shard whose
// checkpoint faults detaches from its file and serves on.
func (s *Store) Checkpoint() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.cells.Checkpoint(); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	return first
}
