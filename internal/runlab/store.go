package runlab

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"zcache/internal/failpoint"
)

// record is one stored cell: the fingerprint (redundant with Key, kept so
// loads can verify integrity), the full key for introspection and GC, and
// the opaque JSON result.
type record struct {
	Fp      Fingerprint     `json:"fp"`
	Key     CellKey         `json:"key"`
	Result  json.RawMessage `json:"result"`
	SavedAt time.Time       `json:"saved_at"`
}

// Store is an on-disk content-addressed result store: fingerprint-sharded
// JSONL files under a directory, fully loaded into memory on Open.
// Writes are buffered by Put and committed by Flush, which appends whole
// records in a single fsynced write per shard (torn tails from a crash
// are skipped and counted by the next Open rather than poisoning the
// store; GC rewrites them away). All methods are safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	mem     map[Fingerprint]record
	dirty   []record
	corrupt int // malformed or fingerprint-mismatched lines skipped at load
	stale   int // lines of another SchemaVersion skipped at load
}

// Open loads (creating if needed) the store at dir. Corrupt lines —
// truncated JSON from a killed run, or records whose stored fingerprint
// does not match their key — are skipped and counted (Corrupt), never
// fatal: their cells are simply computed again. Lines written under
// another SchemaVersion are skipped and counted as stale (Stale); their
// keys are not read past the schema, since the key layout may differ.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runlab: create store dir: %w", err)
	}
	s := &Store{dir: dir, mem: map[Fingerprint]record{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("runlab: read store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !isShardName(e.Name()) {
			continue
		}
		if err := s.loadShard(filepath.Join(dir, e.Name())); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// isShardName matches the two-hex-digit shard files, leaving
// MANIFEST.jsonl and anything else alone.
func isShardName(name string) bool {
	if !strings.HasSuffix(name, ".jsonl") || len(name) != len("ab.jsonl") {
		return false
	}
	return Fingerprint(name[:2] + strings.Repeat("0", 30)).Valid()
}

// loadShard reads one shard file, skipping and counting bad lines.
func (s *Store) loadShard(path string) error {
	if err := failpoint.Inject("runlab/store/load"); err != nil {
		return fmt.Errorf("runlab: open shard %s: %w", path, err)
	}
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("runlab: open shard: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var head struct {
			Key struct {
				Schema int `json:"schema"`
			} `json:"key"`
		}
		if err := json.Unmarshal(line, &head); err == nil && head.Key.Schema != SchemaVersion {
			s.stale++
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || rec.Fp != rec.Key.Fingerprint() || len(rec.Result) == 0 {
			s.corrupt++
			continue
		}
		s.mem[rec.Fp] = rec // last write wins
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("runlab: scan %s: %w", path, err)
	}
	return nil
}

// Get returns the stored result for fp, if present (including records
// buffered by Put but not yet flushed).
func (s *Store) Get(fp Fingerprint) (json.RawMessage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.mem[fp]
	return rec.Result, ok
}

// Put buffers one result for the key. The record is visible to Get
// immediately and reaches disk at the next Flush.
func (s *Store) Put(key CellKey, result json.RawMessage) {
	rec := record{Fp: key.Fingerprint(), Key: key, Result: result, SavedAt: time.Now().UTC()}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mem[rec.Fp] = rec
	s.dirty = append(s.dirty, rec)
}

// Flush appends all buffered records to their shards. Each shard receives
// its records as one write of complete lines, so a concurrent reader (or
// a crash mid-flush) sees either whole records or a torn tail that the
// next Open skips and GC removes. Each touched shard is fsynced before
// Flush returns, so a machine crash (not just a process crash) cannot
// lose a committed record. Buffered records are kept on error so a later
// Flush retries them (replays are idempotent: last write wins at load).
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.dirty) == 0 {
		return nil
	}
	if err := failpoint.Inject("runlab/store/flush"); err != nil {
		return fmt.Errorf("runlab: flush: %w", err)
	}
	byShard := map[string][]record{}
	for _, rec := range s.dirty {
		byShard[rec.Fp.Shard()] = append(byShard[rec.Fp.Shard()], rec)
	}
	for shard, recs := range byShard {
		var buf bytes.Buffer
		for _, rec := range recs {
			line, err := json.Marshal(rec)
			if err != nil {
				return fmt.Errorf("runlab: encode record: %w", err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		if err := appendFile(filepath.Join(s.dir, shard), buf.Bytes()); err != nil {
			return err
		}
	}
	s.dirty = s.dirty[:0]
	return nil
}

// appendFile appends data to path in a single write and fsyncs it before
// close; when the write starts the file, the directory is fsynced too, so
// the new entry survives a machine crash. Every error — including the
// success-path Close, whose failure can silently drop buffered records —
// is propagated.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runlab: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("runlab: stat %s: %w", path, err)
	}
	// A crash mid-append can leave the file without a trailing newline.
	// Appending straight after it would glue the first new record onto
	// the torn line, corrupting both; terminate the torn tail first so
	// only the partial record is lost.
	if st.Size() > 0 {
		var last [1]byte
		if _, err := f.ReadAt(last[:], st.Size()-1); err == nil && last[0] != '\n' {
			data = append([]byte{'\n'}, data...)
		}
	}
	// Torn-write injection: persist a truncated prefix and report the
	// crash, exactly what a power cut mid-append leaves behind.
	if act := failpoint.Eval("runlab/store/append"); act.Mode == failpoint.Torn {
		n := len(data) - act.Truncate
		if n < 0 {
			n = 0
		}
		f.Write(data[:n])
		f.Close()
		return fmt.Errorf("runlab: append %s: %w", path, act.Err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("runlab: append %s: %w", path, err)
	}
	// Crash-before-fsync injection: the data reached the OS but the
	// process dies before Sync; callers must treat the flush as failed.
	if err := failpoint.Inject("runlab/store/fsync"); err != nil {
		f.Close()
		return fmt.Errorf("runlab: sync %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("runlab: sync %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runlab: close %s: %w", path, err)
	}
	if st.Size() == 0 {
		return syncDir(filepath.Dir(path))
	}
	return nil
}

// writeFileAtomic writes data to path via a fsynced temp file and an
// atomic rename, so readers (and crashes) see either the old shard or the
// complete new one. The caller fsyncs the directory to make the rename
// itself durable.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("runlab: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("runlab: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("runlab: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runlab: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("runlab: rename %s: %w", tmp, err)
	}
	return nil
}

// syncDir fsyncs a directory so a created file, a completed rename or a
// removal survives a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("runlab: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("runlab: sync dir %s: %w", dir, err)
	}
	return nil
}

// Len returns the number of distinct cells in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.mem)
}

// Corrupt returns the number of bad lines skipped at load time.
func (s *Store) Corrupt() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// StoreStats summarizes the store for status reporting.
type StoreStats struct {
	Cells   int
	Shards  int
	Bytes   int64
	Corrupt int
	Stale   int
	// Sampled counts cells produced by sampled execution (key.Sampled
	// set); Cells - Sampled are exact.
	Sampled int
	// Presets counts cells per preset name.
	Presets map[string]int
}

// Stats walks the store directory and the in-memory index.
func (s *Store) Stats() (StoreStats, error) {
	s.mu.Lock()
	st := StoreStats{Cells: len(s.mem), Corrupt: s.corrupt, Stale: s.stale,
		Presets: map[string]int{}}
	for _, rec := range s.mem {
		st.Presets[rec.Key.Preset]++
		if rec.Key.Sampled {
			st.Sampled++
		}
	}
	s.mu.Unlock()
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !isShardName(d.Name()) {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		st.Shards++
		st.Bytes += info.Size()
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("runlab: walk store: %w", err)
	}
	return st, nil
}

// shardLines renders one shard's records deterministically (sorted by
// fingerprint) for compaction rewrites.
func shardLines(recs []record) ([]byte, error) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Fp < recs[j].Fp })
	var buf bytes.Buffer
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, fmt.Errorf("runlab: encode record: %w", err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes(), nil
}

// GC compacts the store: records for which keep returns false are
// dropped, duplicates collapse to one line, and corrupt and stale lines
// disappear.
// It is the store's one rewrite. Each shard is written to a fsynced temp
// file and atomically renamed into place (or removed when it empties),
// and the directory is fsynced before GC returns, so a crash mid-GC
// leaves every shard either old or new. Unflushed Puts are flushed into
// the compaction. Returns the records kept and dropped.
func (s *Store) GC(keep func(CellKey) bool) (kept, dropped int, err error) {
	if err := s.Flush(); err != nil {
		return 0, 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	byShard := map[string][]record{}
	for fp, rec := range s.mem {
		if keep == nil || keep(rec.Key) {
			byShard[fp.Shard()] = append(byShard[fp.Shard()], rec)
			kept++
		} else {
			delete(s.mem, fp)
			dropped++
		}
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return kept, dropped, fmt.Errorf("runlab: read store dir: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !isShardName(e.Name()) {
			continue
		}
		shard := e.Name()
		recs := byShard[shard]
		path := filepath.Join(s.dir, shard)
		if len(recs) == 0 {
			if err := os.Remove(path); err != nil {
				return kept, dropped, fmt.Errorf("runlab: remove empty shard: %w", err)
			}
			continue
		}
		data, err := shardLines(recs)
		if err != nil {
			return kept, dropped, err
		}
		if err := writeFileAtomic(path, data); err != nil {
			return kept, dropped, err
		}
		delete(byShard, shard)
	}
	// Shards with kept records but no existing file (possible after a
	// previous partial GC): write them too.
	for shard, recs := range byShard {
		data, err := shardLines(recs)
		if err != nil {
			return kept, dropped, err
		}
		if err := writeFileAtomic(filepath.Join(s.dir, shard), data); err != nil {
			return kept, dropped, err
		}
	}
	if err := syncDir(s.dir); err != nil {
		return kept, dropped, err
	}
	s.corrupt, s.stale = 0, 0
	return kept, dropped, nil
}
