package zkv

import (
	"zcache/internal/repl"
	"zcache/internal/zkvproto"
)

// Cluster range hooks: the store-side half of live resharding. A resharding
// source streams its arc out via MigrateRange (paged, served under brief
// per-shard locks so the store keeps serving), and drops the arc via
// ForgetRange once the drain controller has flipped routing. Both walk the
// slot arrays directly — the same cells the serving path uses — so the
// handoff needs no shadow index.

// MigrateRange appends wire-encoded migrate entries (see zkvproto/migrate.go)
// for resident keys whose ring point lies in the arc (start, end], scanning
// globally slot-ordered from cursor. It stops once the appended entry bytes
// reach maxBytes (always emitting at least one entry per call while any
// remain), and returns the cursor to resume from — 0 when the scan is done.
//
// The scan is a point-in-time slot sweep, not a snapshot: entries relocated
// by concurrent writes can be missed or repeated across pages. The resharding
// protocol tolerates both (delta pass + version-stamped last-writer-wins).
func (s *Store) MigrateRange(start, end, cursor uint64, maxBytes int, dst []byte) (out []byte, next uint64, count int) {
	blocks := uint64(s.cfg.Ways) * s.cfg.Rows
	total := uint64(s.cfg.Shards) * blocks
	base := len(dst)
	var key, val, scratch []byte // every entry decodes through scratch
	for gi := cursor; gi < total; {
		si := int(gi / blocks)
		sh := s.shards[si]
		segEnd := (uint64(si) + 1) * blocks
		sh.mu.Lock()
		for ; gi < segEnd; gi++ {
			id := repl.BlockID(gi % blocks)
			fp, ok := sh.arr.SlotLine(id)
			if !ok || !zkvproto.InArc(zkvproto.RingPoint(fp), start, end) {
				continue
			}
			key, val, scratch = sh.entry(id, scratch)
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
// and each shard's batch publishes through the seqlock and the persistent
// mirror exactly like a Delete.
func (s *Store) ForgetRange(start, end uint64) (dropped int) {
	var lines []uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.drainTouches()
		lines = lines[:0]
		blocks := repl.BlockID(sh.arr.Blocks())
		for id := repl.BlockID(0); id < blocks; id++ {
			if fp, ok := sh.arr.SlotLine(id); ok && zkvproto.InArc(zkvproto.RingPoint(fp), start, end) {
				lines = append(lines, fp)
			}
		}
		if len(lines) > 0 {
			mirrored := sh.psBegin()
			sh.seq.Add(1)
			sh.deleting = true
			for _, fp := range lines {
				sh.c.Invalidate(fp)
			}
			sh.deleting = false
			sh.seq.Add(1)
			if mirrored {
				sh.psEnd()
			}
			dropped += len(lines)
		}
		sh.mu.Unlock()
	}
	return dropped
}

// Checkpoint publishes a durable clean snapshot of every persistent shard
// mirror (data msync, then the clean mark) without closing the store. A
// resharding source calls this after ForgetRange so its on-disk image
// reflects the handed-off state; a store without persistence checkpoints
// trivially. A shard whose checkpoint faults detaches its mirror (memory-only
// from then on, dirty on disk — the standard rebuild signal).
func (s *Store) Checkpoint() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.ps != nil {
			if err := sh.ps.Checkpoint(); err != nil {
				sh.psDetach()
				if first == nil {
					first = err
				}
			}
		}
		sh.mu.Unlock()
	}
	return first
}
