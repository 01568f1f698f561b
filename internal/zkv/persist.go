package zkv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"zcache/internal/slotstore"
	"zcache/internal/zkvproto"
)

// Persistence: with a PersistDir, each shard's cell store is one mapped
// slotstore file (PersistDir/shard-NNN.slc) instead of Go-heap slabs, under
// the same serving code (no syscalls on it unless PersistSync is set). This
// file opens and attaches the shard files, closes them, and reports.
//
// On Open, a shard whose file validates warm is built over it as it stands:
// the slot table is the tag array, so the tags, and therefore future
// eviction decisions, are the pre-shutdown state exactly. cache.Restore
// checks every tag's placement and ranks the entries in slot order; nothing
// is copied or re-placed. A file that reports ErrNeedsRebuild (crashed
// writer) or ErrInvalidFormat (foreign geometry or an older format) is
// recreated empty: a cold shard is always safe. A shard whose file hits an
// I/O error mid-flight detaches from it and carries on in the same memory;
// the file stays marked dirty on disk, so the next boot rebuilds it rather
// than trusting it.

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

// openPersist readies the shard-file directory. Called from Open before the
// store is published, so no locks are held.
func (s *Store) openPersist() error {
	if !slotstore.Supported() {
		return fmt.Errorf("zkv: persistence is not supported on this platform")
	}
	if err := os.MkdirAll(s.cfg.PersistDir, 0o755); err != nil {
		return err
	}
	s.persist.Enabled, s.persist.Dir = true, s.cfg.PersistDir
	return nil
}

// attachPersist builds shard i over its file: warm when the file validates,
// freshly created otherwise.
func (s *Store) attachPersist(i int) (*shard, error) {
	pcfg := slotstore.Config{
		Slots:       s.cfg.Ways * int(s.cfg.Rows),
		SyncEveryOp: s.cfg.PersistSync,
		Seed:        s.cfg.shardSpec(i).Seed,
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
		if sh := s.warmShard(i, cells); sh != nil {
			s.persist.WarmShards++
			s.persist.WarmEntries += cells.Resident()
			return sh, nil
		}
		// A tag outside its line's slots contradicts the geometry stamp,
		// and a fault while dropping entries leaves the file dirty: discard
		// the image — a cold shard is always safe, a half-warm one is not.
		cells.Close(false)
		s.persist.Rebuilds++
	} else if errors.Is(err, slotstore.ErrNeedsRebuild) {
		s.persist.Rebuilds++
	} else if !errors.Is(err, slotstore.ErrInvalidFormat) && !os.IsNotExist(err) {
		return nil, fmt.Errorf("zkv: shard %d persistence: %w", i, err)
	}
	if cells, err = slotstore.Create(path, pcfg); err != nil {
		return nil, fmt.Errorf("zkv: shard %d persistence: %w", i, err)
	}
	s.persist.ColdShards++
	sh, err := newShard(s.cfg, i, cells)
	if err != nil {
		cells.Close(false)
	}
	return sh, err
}

// warmShard builds shard i over a validated image, or returns nil if the
// image is not servable (the caller rebuilds the shard cold). Entries over
// the store's key/value bounds are dropped first; the controller then checks
// the tags in place and ranks the survivors in slot order (cache.Restore).
func (s *Store) warmShard(i int, cells *slotstore.Store) *shard {
	var drop []int
	cells.Range(func(slot int, _ uint64, key, val []byte) bool {
		if len(key) > zkvproto.MaxKeyLen || len(val) > s.cfg.MaxValBytes {
			drop = append(drop, slot)
		}
		return true
	})
	if len(drop) > 0 {
		begun := cells.Begin()
		for _, id := range drop {
			cells.ClearSlot(id)
		}
		if err := cells.End(); err != nil || begun != nil {
			return nil
		}
	}
	sh, err := newShard(s.cfg, i, cells)
	if err != nil || sh.c.Restore() != nil {
		return nil
	}
	return sh
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
