package zkv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"zcache/internal/repl"
	"zcache/internal/slotstore"
)

// Persistence: with a PersistDir, each shard's cell store is one mapped
// slotstore file (PersistDir/shard-NNN.slc) instead of Go-heap slabs, under
// the same serving code (no syscalls on it unless PersistSync is set). This
// file opens and attaches the shard files, closes them, and reports.
//
// On Open, a shard whose file validates warm has its tags re-placed slot for
// slot via cache.Adopt — the entries are already where the shard reads them —
// so the tag array, and therefore future eviction decisions, reproduces the
// pre-shutdown state exactly. A file that reports ErrNeedsRebuild (crashed
// writer) or ErrInvalidFormat (foreign geometry) is recreated empty: a cold
// shard is always safe. A shard whose file hits an I/O error mid-flight
// detaches from it and carries on in the same memory; the file stays marked
// dirty on disk, so the next boot rebuilds it rather than trusting it.

// PersistReport summarizes the persistence layer for logs and metrics.
type PersistReport struct {
	// Enabled reports whether the store was opened with a PersistDir.
	Enabled bool
	// Dir is the shard-file directory.
	Dir string
	// WarmShards and ColdShards count shards reloaded from a valid image
	// vs started empty (missing file, rebuild signal, or format mismatch).
	WarmShards, ColdShards int
	// Rebuilds counts cold shards specifically caused by a rebuild signal
	// (dirty/torn file), as opposed to a missing or foreign file.
	Rebuilds int
	// WarmEntries is the total number of entries restored at open.
	WarmEntries int
	// Detached counts shards cut off from their file by an I/O error.
	Detached int
}

func (s *Store) persistPath(i int) string {
	return filepath.Join(s.cfg.PersistDir, fmt.Sprintf("shard-%03d.slc", i))
}

// openPersist attaches a slot store to every shard: warm when the file
// validates, freshly created otherwise. Called from Open before the store
// is published, so no locks are held.
func (s *Store) openPersist() error {
	if !slotstore.Supported() {
		return fmt.Errorf("zkv: persistence is not supported on this platform")
	}
	if err := os.MkdirAll(s.cfg.PersistDir, 0o755); err != nil {
		return err
	}
	s.persist.Enabled, s.persist.Dir = true, s.cfg.PersistDir
	for i := range s.shards {
		if err := s.attachPersist(i); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) attachPersist(i int) error {
	sh := s.shards[i]
	pcfg := slotstore.Config{
		Slots:       s.cfg.Ways * int(s.cfg.Rows),
		SyncEveryOp: s.cfg.PersistSync,
		Seed:        shardSeed(s.cfg.Seed, i),
		Ways:        s.cfg.Ways,
		Levels:      s.cfg.Levels,
		Rows:        s.cfg.Rows,
		Policy:      uint32(s.cfg.Policy),
		Shard:       i,
		ShardCount:  s.cfg.Shards,
	}
	path := s.persistPath(i)
	cells, err := slotstore.Open(path, pcfg)
	if err == nil {
		if sh.adopt(cells, s.cfg.MaxKeyBytes, s.cfg.MaxValBytes) {
			sh.cells = cells
			s.persist.WarmShards++
			s.persist.WarmEntries += cells.Resident()
			return nil
		}
		// Adoption failed partway: the image contradicted its own geometry
		// stamp. Discard both the image and the partially-adopted core —
		// a cold shard is always safe, a half-warm one is not.
		cells.Close(false)
		fresh, ferr := newShard(s.cfg, i)
		if ferr != nil {
			return ferr
		}
		s.shards[i] = fresh
		sh = fresh
		s.persist.Rebuilds++
	} else if errors.Is(err, slotstore.ErrNeedsRebuild) {
		s.persist.Rebuilds++
	} else if !errors.Is(err, slotstore.ErrInvalidFormat) && !os.IsNotExist(err) {
		return fmt.Errorf("zkv: shard %d persistence: %w", i, err)
	}
	if sh.cells, err = slotstore.Create(path, pcfg); err != nil {
		return fmt.Errorf("zkv: shard %d persistence: %w", i, err)
	}
	s.persist.ColdShards++
	return nil
}

// adopt places a validated image's tags in the shard core, slot for slot,
// reporting false if a placement is rejected (the caller rebuilds the shard
// cold). Entries over the store's key/value bounds are dropped, not adopted.
func (sh *shard) adopt(cells *slotstore.Store, maxKey, maxVal int) bool {
	ok := true
	var drop []int
	cells.Range(func(slot int, fp uint64, key, val []byte) bool {
		if len(key) > maxKey || len(val) > maxVal {
			drop = append(drop, slot)
			return true
		}
		ok = sh.c.Adopt(repl.BlockID(slot), fp) == nil
		return ok
	})
	if ok && len(drop) > 0 {
		ok = cells.Begin() == nil
		for _, id := range drop {
			cells.ClearSlot(id)
		}
		ok = cells.End() == nil && ok
	}
	return ok
}

// Close checkpoints every shard file (data msync, then the clean mark), so
// the next Open is warm, and unmaps it. The caller must have quiesced the
// store: an operation still inside a shard may be reading memory Close
// unmaps. Operations that start after Close returns find nothing — Get
// misses, Set returns ErrClosed, Delete, MigrateRange and ForgetRange report
// zero.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if err := sh.cells.Close(true); err != nil && first == nil {
			first = err
		}
		sh.mu.Unlock()
	}
	return first
}

// Persist reports the persistence layer's state, without taking a lock.
func (s *Store) Persist() PersistReport {
	r := s.persist
	for _, sh := range s.shards {
		if sh.cells.Detached() {
			r.Detached++
		}
	}
	return r
}
