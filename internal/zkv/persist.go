package zkv

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"zcache/internal/repl"
	"zcache/internal/slotstore"
)

// Persistence: each shard optionally mirrors its slot cells into one
// slotstore file (PersistDir/shard-NNN.slc) through the same SlotObserver
// events that keep the in-memory cells aligned with the tag array. The
// mirror is write-through into an mmap (no syscalls on the hot path unless
// PersistSync is set), bracketed per mutation by the store's seqlock.
//
// On Open, a shard whose file validates warm is reloaded slot for slot via
// cache.Adopt, so the tag array — and therefore future eviction decisions —
// reproduces the pre-shutdown state exactly. A file that reports
// ErrNeedsRebuild (crashed writer) or ErrInvalidFormat (foreign geometry)
// is recreated empty: the shard starts cold, which is always safe. A shard
// that hits a persistence I/O error mid-flight detaches its mirror and
// carries on memory-only; the abandoned file stays marked dirty on disk, so
// the next boot rebuilds it rather than trusting a half-written image.

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
	// Detached counts shards that dropped persistence after an I/O error.
	Detached int
}

func (s *Store) persistPath(i int) string {
	return filepath.Join(s.cfg.PersistDir, fmt.Sprintf("shard-%03d.slc", i))
}

func (s *Store) persistCfg(i int) slotstore.Config {
	return slotstore.Config{
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
	for i := range s.shards {
		if err := s.attachPersist(i); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) attachPersist(i int) error {
	sh := s.shards[i]
	pcfg := s.persistCfg(i)
	path := s.persistPath(i)
	ps, err := slotstore.Open(path, pcfg)
	if err == nil {
		if sh.adoptFrom(ps, s.cfg.MaxKeyBytes, s.cfg.MaxValBytes) {
			sh.ps = ps
			s.warmShards++
			s.warmEntries += sh.resident
			return nil
		}
		// Adoption failed partway: the image contradicted its own geometry
		// stamp. Discard both the image and the partially-adopted core —
		// a cold shard is always safe, a half-warm one is not.
		ps.Close(false)
		fresh, ferr := newShard(s.cfg, i)
		if ferr != nil {
			return ferr
		}
		s.shards[i] = fresh
		sh = fresh
		s.rebuilds++
	} else if errors.Is(err, slotstore.ErrNeedsRebuild) {
		s.rebuilds++
	} else if !errors.Is(err, slotstore.ErrInvalidFormat) && !os.IsNotExist(err) {
		return fmt.Errorf("zkv: shard %d persistence: %w", i, err)
	}
	ps, err = slotstore.Create(path, pcfg)
	if err != nil {
		return fmt.Errorf("zkv: shard %d persistence: %w", i, err)
	}
	sh.ps = ps
	s.coldShards++
	return nil
}

// adoptFrom replays a validated slot image into the shard core, slot for
// slot. It returns false if any placement is rejected (the caller rebuilds
// the shard cold). Entries that no longer fit the store's key/value bounds
// are dropped from the image rather than adopted.
func (sh *shard) adoptFrom(ps *slotstore.Store, maxKey, maxVal int) bool {
	ok := true
	var drop []int
	ps.Range(func(slot int, fp uint64, key, val []byte) bool {
		if len(key) > maxKey || len(val) > maxVal {
			drop = append(drop, slot)
			return true
		}
		if err := sh.c.Adopt(repl.BlockID(slot), fp); err != nil {
			ok = false
			return false
		}
		sh.publishCell(repl.BlockID(slot), fp, key, val)
		sh.resident++
		return true
	})
	if !ok {
		return false
	}
	if len(drop) > 0 {
		if ps.Begin() != nil {
			return false
		}
		for _, id := range drop {
			ps.ClearSlot(id)
		}
		if ps.End() != nil {
			return false
		}
	}
	return true
}

// psBegin opens the mirror's mutation batch for one locked shard op. It
// returns false — with the mirror detached — if the dirty mark cannot be
// made durable, in which case the caller must not mirror the mutation.
func (sh *shard) psBegin() bool {
	if sh.ps == nil {
		return false
	}
	if err := sh.ps.Begin(); err != nil {
		sh.psDetach()
		return false
	}
	return true
}

// psEnd closes the batch opened by psBegin.
func (sh *shard) psEnd() {
	if sh.ps == nil {
		return
	}
	if err := sh.ps.End(); err != nil {
		sh.psDetach()
	}
}

// psDetach drops the shard's mirror after a persistence fault: the shard
// carries on memory-only, and the file — still marked dirty on disk —
// triggers a rebuild on the next boot instead of serving a torn image.
func (sh *shard) psDetach() {
	if sh.ps == nil {
		return
	}
	sh.ps.Close(false)
	sh.ps = nil
	sh.psDetached = true
}

// Close cleanly shuts down the persistence layer: every shard's mirror is
// checkpointed (data msync, then the clean mark) so the next Open is warm.
// A store without persistence closes trivially. The store must not be used
// after Close.
func (s *Store) Close() error {
	var first error
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.ps != nil {
			if err := sh.ps.Close(true); err != nil && first == nil {
				first = err
			}
			sh.ps = nil
		}
		sh.mu.Unlock()
	}
	return first
}

// Persist reports the persistence layer's state.
func (s *Store) Persist() PersistReport {
	r := PersistReport{
		Enabled:     s.cfg.PersistDir != "",
		Dir:         s.cfg.PersistDir,
		WarmShards:  s.warmShards,
		ColdShards:  s.coldShards,
		Rebuilds:    s.rebuilds,
		WarmEntries: s.warmEntries,
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		if sh.psDetached {
			r.Detached++
		}
		sh.mu.Unlock()
	}
	return r
}
