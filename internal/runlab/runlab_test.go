package runlab

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func testKey(i int) CellKey {
	return CellKey{
		Schema:   SchemaVersion,
		Preset:   "test",
		Workload: fmt.Sprintf("wl%d", i),
		Design:   "Z4/52",
		Inputs:   testInputs(4, 512<<10, 200),
	}
}

// testInputs stands in for a cell's encoded inputs. The note needs
// escaping, as a string in real inputs may.
func testInputs(cores, l2Bytes, memLatency int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"cores":%d, "l2_bytes":%d, "mem_latency":%d, "note":"<&>"}`, cores, l2Bytes, memLatency))
}

type cellResult struct {
	IPC  float64 `json:"ipc"`
	MPKI float64 `json:"mpki"`
	N    int     `json:"n"`
}

func TestFingerprintStableAndDistinct(t *testing.T) {
	k := testKey(0)
	fp := k.Fingerprint()
	if !fp.Valid() {
		t.Fatalf("invalid fingerprint %q", fp)
	}
	if fp != k.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	// A key read back from a stored record fingerprints as it did when
	// written.
	line, err := json.Marshal(record{Fp: fp, Key: k})
	if err != nil {
		t.Fatal(err)
	}
	var back record
	if err := json.Unmarshal(line, &back); err != nil {
		t.Fatal(err)
	}
	if back.Key.Fingerprint() != fp {
		t.Errorf("key does not round-trip: %s", line)
	}
	// Every field must matter, each input included.
	mutations := []func(*CellKey){
		func(k *CellKey) { k.Schema++ },
		func(k *CellKey) { k.Preset = "full" },
		func(k *CellKey) { k.Workload = "other" },
		func(k *CellKey) { k.Design = "SA-4" },
		func(k *CellKey) { k.Sampled = true },
		func(k *CellKey) { k.Inputs = testInputs(8, 512<<10, 200) },
		func(k *CellKey) { k.Inputs = testInputs(4, 512<<10+1, 200) },
		func(k *CellKey) { k.Inputs = testInputs(4, 512<<10, 400) },
		func(k *CellKey) { k.Inputs = nil },
	}
	seen := map[Fingerprint]int{fp: -1}
	for i, mut := range mutations {
		m := k
		mut(&m)
		mfp := m.Fingerprint()
		if prev, dup := seen[mfp]; dup {
			t.Errorf("mutation %d collides with %d", i, prev)
		}
		seen[mfp] = i
	}
	// Field-boundary ambiguity: ("ab","c") must differ from ("a","bc").
	a, b := k, k
	a.Workload, a.Design = "ab", "c"
	b.Workload, b.Design = "a", "bc"
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("field boundaries are ambiguous")
	}
}

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		raw, _ := json.Marshal(cellResult{IPC: float64(i), N: i})
		s.Put(testKey(i), raw)
	}
	// Visible before flush.
	if _, ok := s.Get(testKey(7).Fingerprint()); !ok {
		t.Fatal("unflushed record not visible")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 20 {
		t.Fatalf("reopened store has %d cells, want 20", s2.Len())
	}
	raw, ok := s2.Get(testKey(7).Fingerprint())
	if !ok {
		t.Fatal("record lost across reopen")
	}
	var got cellResult
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.IPC != 7 || got.N != 7 {
		t.Fatalf("got %+v", got)
	}
}

func TestStoreToleratesCorruption(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	raw, _ := json.Marshal(cellResult{IPC: 1})
	s.Put(testKey(0), raw)
	s.Put(testKey(1), raw)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Append garbage to every shard: a torn JSON tail and a record whose
	// fingerprint does not match its key.
	bogus := record{Fp: testKey(2).Fingerprint(), Key: testKey(3), Result: raw}
	bogusLine, _ := json.Marshal(bogus)
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if !isShardName(e.Name()) {
			continue
		}
		p := filepath.Join(dir, e.Name())
		f, _ := os.OpenFile(p, os.O_WRONLY|os.O_APPEND, 0o644)
		fmt.Fprintf(f, "{\"fp\":\"torn\n%s\nnot json at all\n", bogusLine)
		f.Close()
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Errorf("cells = %d, want 2", s2.Len())
	}
	if s2.Corrupt() == 0 {
		t.Error("corrupt lines not reported")
	}
	// GC compacts the bad lines away.
	kept, dropped, err := s2.GC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 || dropped != 0 {
		t.Errorf("gc kept %d dropped %d", kept, dropped)
	}
	s3, _ := Open(dir)
	if s3.Corrupt() != 0 || s3.Len() != 2 {
		t.Errorf("post-gc store: %d cells, %d corrupt", s3.Len(), s3.Corrupt())
	}
}

func TestStoreGCDropsByPredicate(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	raw, _ := json.Marshal(cellResult{})
	old := testKey(0)
	old.Schema = SchemaVersion - 1
	s.Put(old, raw)
	s.Put(testKey(1), raw)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	kept, dropped, err := s.GC(func(k CellKey) bool { return k.Schema == SchemaVersion })
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 || dropped != 1 {
		t.Fatalf("gc kept %d dropped %d, want 1/1", kept, dropped)
	}
	if _, ok := s.Get(old.Fingerprint()); ok {
		t.Error("dropped record still readable")
	}
	s2, _ := Open(dir)
	if s2.Len() != 1 {
		t.Errorf("reopened store has %d cells, want 1", s2.Len())
	}
}

// TestStoreSkipsStaleSchemaLines: lines a previous schema wrote (one exact
// and one sampled cell, as the schema-2 layout stored them) are stale, not
// corrupt. Open serves none of them and counts them apart from corrupt
// lines, and GC removes them.
func TestStoreSkipsStaleSchemaLines(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "schema2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, _ := Open(dir)
	s.Put(testKey(0), json.RawMessage(`{"n":0}`))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ff.jsonl"), append(old, "{not json\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 1 || st.Stale != 2 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 cell, 2 stale and 1 corrupt line", st)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(old)), "\n") {
		var rec struct{ Fp Fingerprint }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if _, ok := s2.Get(rec.Fp); ok {
			t.Errorf("stale cell %s is served", rec.Fp)
		}
	}
	if _, _, err := s2.GC(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "ff.jsonl")); !os.IsNotExist(err) {
		t.Errorf("gc kept the shard of stale lines (%v)", err)
	}
	s3, _ := Open(dir)
	if st, _ := s3.Stats(); st.Cells != 1 || st.Stale != 0 || st.Corrupt != 0 {
		t.Errorf("after gc: stats = %+v, want 1 cell and no bad lines", st)
	}
}

func TestRunnerCachesAndResumes(t *testing.T) {
	dir := t.TempDir()
	keys := make([]CellKey, 10)
	for i := range keys {
		keys[i] = testKey(i)
	}
	compute := func(calls *atomic.Int64) ComputeFunc {
		return func(i int, key CellKey) (any, error) {
			calls.Add(1)
			return cellResult{IPC: float64(i) * 1.5, N: i}, nil
		}
	}

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cold atomic.Int64
	r := &Runner{Store: st, Workers: 4, Label: "test"}
	out, prog, err := r.Run(context.Background(), keys, compute(&cold))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Load() != 10 || prog.Computed != 10 || prog.Cached != 0 {
		t.Fatalf("cold: calls=%d computed=%d cached=%d", cold.Load(), prog.Computed, prog.Cached)
	}
	for i, raw := range out {
		var got cellResult
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.N != i {
			t.Fatalf("out[%d] = %+v", i, got)
		}
	}

	// Fresh store handle = simulated process restart. Zero computes.
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warm atomic.Int64
	r2 := &Runner{Store: st2, Workers: 4, Label: "test-warm"}
	out2, prog2, err := r2.Run(context.Background(), keys, compute(&warm))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Load() != 0 || prog2.Cached != 10 || prog2.Computed != 0 {
		t.Fatalf("warm: calls=%d cached=%d computed=%d", warm.Load(), prog2.Cached, prog2.Computed)
	}
	for i := range out {
		if string(out[i]) != string(out2[i]) {
			t.Fatalf("cell %d differs across runs", i)
		}
	}

	// Manifest recorded both runs.
	entries, err := st2.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Label != "test" || entries[1].Cached != 10 {
		t.Fatalf("manifest = %+v", entries)
	}
}

func TestRunnerInterruptionCheckpointsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	keys := make([]CellKey, 12)
	for i := range keys {
		keys[i] = testKey(i)
	}
	st, _ := Open(dir)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &Runner{Store: st, Workers: 1}
	r.OnProgress = func(p Progress) {
		if p.Done >= 4 {
			cancel() // simulate the user killing the run mid-way
		}
	}
	var calls atomic.Int64
	_, _, err := r.Run(ctx, keys, func(i int, key CellKey) (any, error) {
		calls.Add(1)
		return cellResult{N: i}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	done := int(calls.Load())
	if done >= len(keys) || done < 4 {
		t.Fatalf("interrupted run computed %d of %d cells", done, len(keys))
	}

	// Resume with a fresh store handle: only the missing cells compute.
	st2, _ := Open(dir)
	onDisk := st2.Len()
	if onDisk < 4 {
		t.Fatalf("checkpoint lost: %d cells on disk", onDisk)
	}
	var resumed atomic.Int64
	r2 := &Runner{Store: st2, Workers: 4}
	_, prog, err := r2.Run(context.Background(), keys, func(i int, key CellKey) (any, error) {
		resumed.Add(1)
		return cellResult{N: i}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if prog.Cached != onDisk || int(resumed.Load()) != len(keys)-onDisk {
		t.Fatalf("resume computed %d, cached %d, store had %d", resumed.Load(), prog.Cached, onDisk)
	}
}

// TestRunnerCheckpointsDuringRun: completed cells reach disk while the run
// is still going, every flushEvery computed cells, not only at the final
// flush. With one worker, cell 32 starts after 32 cells completed, so a
// second handle opened from inside its compute sees both checkpoints.
func TestRunnerCheckpointsDuringRun(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]CellKey, 40)
	for i := range keys {
		keys[i] = testKey(i)
	}
	onDisk := -1
	r := &Runner{Store: st, Workers: 1}
	_, _, err = r.Run(context.Background(), keys, func(i int, key CellKey) (any, error) {
		if i == 2*flushEvery {
			peek, err := Open(dir)
			if err != nil {
				return nil, err
			}
			onDisk = peek.Len()
		}
		return cellResult{N: i}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if onDisk < 2*flushEvery {
		t.Fatalf("%d cells on disk when cell %d started, want >= %d", onDisk, 2*flushEvery, 2*flushEvery)
	}
}

func TestRunnerRetriesOnceThenFails(t *testing.T) {
	keys := []CellKey{testKey(0), testKey(1), testKey(2), testKey(3)}
	var calls atomic.Int64
	r := &Runner{Workers: 1}
	_, prog, err := r.Run(context.Background(), keys, func(i int, key CellKey) (any, error) {
		calls.Add(1)
		if i == 1 {
			return nil, errors.New("boom")
		}
		return cellResult{N: i}, nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v", err)
	}
	if prog.Failed != 1 {
		t.Errorf("failed=%d, want 1", prog.Failed)
	}
	// Workers=1 and cancellation on failure: cells after the failing one
	// must not run.
	if calls.Load() != 2 { // cell 0, cell 1 once
		t.Errorf("calls = %d, want 2 (failure cancels the rest)", calls.Load())
	}
}

// TestRunnerComputesEachCellOnce: a cell is a pure function of its key, so
// a compute that would succeed on a second call still leaves its cell
// failed, with nothing stored for it, and every cell is computed once.
func TestRunnerComputesEachCellOnce(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := []CellKey{testKey(0), testKey(1), testKey(2)}
	var calls [3]atomic.Int32
	r := &Runner{Store: st, Workers: 2, Quarantine: true}
	out, prog, err := r.Run(context.Background(), keys, func(i int, key CellKey) (any, error) {
		if calls[i].Add(1) == 1 && i == 1 {
			return nil, errors.New("first call fails")
		}
		return cellResult{N: i}, nil
	})
	var qerr *QuarantineError
	if !errors.As(err, &qerr) || len(qerr.Cells) != 1 || qerr.Cells[0].Index != 1 {
		t.Fatalf("err = %v, want cell 1 quarantined", err)
	}
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Errorf("cell %d computed %d times, want 1", i, n)
		}
	}
	if out[1] != nil {
		t.Error("failed cell has a result")
	}
	if _, ok := st.Get(keys[1].Fingerprint()); ok {
		t.Error("failed cell has a stored result")
	}
	if prog.Failed != 1 || prog.Computed != 2 {
		t.Errorf("prog = %+v, want 1 failed / 2 computed", prog)
	}
}

func TestStoreStats(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	raw, _ := json.Marshal(cellResult{})
	for i := 0; i < 5; i++ {
		s.Put(testKey(i), raw)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cells != 5 || st.Shards == 0 || st.Bytes == 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.Presets["test"] != 5 || st.Stale != 0 || st.Corrupt != 0 {
		t.Errorf("stats breakdown = %+v", st)
	}
}
