package runlab

// Chaos suite: fault injection through the failpoint package, asserting
// the three robustness properties the engine promises:
//
//  1. a run under faults completes (quarantining, not aborting),
//  2. no committed result is ever lost or silently corrupted, and
//  3. after recovery, a warm rerun is bit-identical to a fault-free run.

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

	"zcache/internal/check"
	"zcache/internal/failpoint"
)

// chaosCompute is a deterministic pure function of the cell index, so
// reruns must reproduce results byte-for-byte.
func chaosCompute(i int, _ CellKey) (any, error) {
	return cellResult{IPC: 1 + float64(i)/64, MPKI: float64(i), N: i}, nil
}

// TestChaosRunQuarantinesRecoversAndRerunsIdentically is the flagship
// chaos test: a 64-cell run with five fault classes live at once (worker
// panics, persistent cell errors, torn shard appends, crash-before-fsync,
// delayed workers, failing checkpoint flushes) must complete in
// quarantine mode; after disabling the faults and compacting the store
// with GC, a warm rerun must match a fault-free reference run bit-for-bit.
func TestChaosRunQuarantinesRecoversAndRerunsIdentically(t *testing.T) {
	const n = 64
	keys := make([]CellKey, n)
	for i := range keys {
		keys[i] = testKey(i)
	}
	compute := func(i int, key CellKey) (any, error) {
		// Two cells are poisoned while chaos is armed — they must
		// quarantine, not abort the run. The poison takes the first two
		// computes to reach it rather than fixed cells: each cell runs once,
		// and which cells the runlab/compute panics take first depends on
		// worker scheduling, so a fixed cell might never reach its poison.
		if err := failpoint.Inject("chaos/poison"); err != nil {
			return nil, err
		}
		if err := failpoint.Inject("chaos/slow"); err != nil {
			return nil, err
		}
		return chaosCompute(i, key)
	}

	// Fault-free reference run in its own store.
	refDir := t.TempDir()
	refStore, err := Open(refDir)
	if err != nil {
		t.Fatal(err)
	}
	refRunner := &Runner{Store: refStore, Workers: 4}
	refRaw, _, err := refRunner.Run(context.Background(), keys, compute)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: every fault class armed, deterministic seed.
	defer failpoint.Reset()
	spec := "runlab/compute=panic:p=0.25;" + // worker panics mid-cell
		"runlab/store/append=torn:p=0.3,trunc=9;" + // crash mid-append
		"runlab/store/fsync=error:p=0.3;" + // crash before fsync
		"runlab/store/flush=error:p=0.25;" + // checkpoint flush failure
		"chaos/poison=error:n=2;" + // two failing cells
		"chaos/slow=delay:p=0.2,d=2ms" // delayed worker
	if err := failpoint.Configure(spec, 0xC0FFEE); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{Store: st, Workers: 4, Quarantine: true}
	_, prog, err := r.Run(context.Background(), keys, compute)
	var qerr *QuarantineError
	if err != nil && !errors.As(err, &qerr) && !strings.Contains(err.Error(), "failpoint") {
		t.Fatalf("chaos run died with a non-injected error: %v", err)
	}
	if prog.Done+prog.Failed != n {
		t.Fatalf("progress does not account for every cell: %+v", prog)
	}
	if prog.Quarantined < 2 {
		t.Fatalf("quarantined %d cells, want >= 2 (the poisoned ones)", prog.Quarantined)
	}
	if qerr != nil {
		for _, ce := range qerr.Cells {
			if ce.Err == nil {
				t.Errorf("quarantined cell %d carries no error", ce.Index)
			}
		}
	}
	if failpoint.Fired("runlab/compute") == 0 || failpoint.Fired("chaos/poison") == 0 {
		t.Fatal("chaos failpoints never fired; the test exercised nothing")
	}
	tornFired := failpoint.Fired("runlab/store/append") > 0

	// "Recovery": faults stop (the process restarts), the store reopens.
	failpoint.Reset()
	st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Property 2: nothing committed may be lost or corrupted — every
	// record that survived must byte-match the reference run.
	for i, key := range keys {
		if raw, ok := st2.Get(key.Fingerprint()); ok {
			if string(raw) != string(refRaw[i]) {
				t.Fatalf("cell %d survived the crash with wrong bytes:\n got %s\nwant %s", i, raw, refRaw[i])
			}
		}
	}
	if tornFired && st2.Corrupt() == 0 {
		t.Log("torn appends fired but left no corrupt tail (all fell on flush boundaries)")
	}
	if st2.Corrupt() > 0 {
		survivors := st2.Len()
		kept, dropped, err := st2.GC(nil)
		if err != nil {
			t.Fatal(err)
		}
		if kept != survivors || dropped != 0 {
			t.Errorf("gc of a corrupt store kept %d and dropped %d of %d intact cells", kept, dropped, survivors)
		}
		if st2.Corrupt() != 0 {
			t.Fatalf("store still reports %d corrupt lines after gc", st2.Corrupt())
		}
	}

	// Property 3: the warm rerun completes everything and is bit-identical
	// to the fault-free reference.
	r2 := &Runner{Store: st2, Workers: 4}
	raw2, prog2, err := r2.Run(context.Background(), keys, compute)
	if err != nil {
		t.Fatal(err)
	}
	if prog2.Failed != 0 || prog2.Quarantined != 0 {
		t.Fatalf("warm rerun still failing: %+v", prog2)
	}
	for i := range keys {
		if string(raw2[i]) != string(refRaw[i]) {
			t.Fatalf("cell %d differs from the fault-free run:\n got %s\nwant %s", i, raw2[i], refRaw[i])
		}
	}
	// A reopened store must verify clean end-to-end.
	st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st3.Len() != n || st3.Corrupt() != 0 {
		t.Fatalf("reopen after gc and rerun: %d cells / %d corrupt, want %d / 0", st3.Len(), st3.Corrupt(), n)
	}
}

// TestRunnerQuarantineContinuesPastPersistentFailure: one poisoned cell
// must not abort the matrix; it lands in the quarantine list, the
// manifest records it, and every other cell completes.
func TestRunnerQuarantineContinuesPastPersistentFailure(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]CellKey, 8)
	for i := range keys {
		keys[i] = testKey(i)
	}
	r := &Runner{Store: st, Workers: 2, Quarantine: true, Label: "chaos/quarantine"}
	out, prog, err := r.Run(context.Background(), keys, func(i int, _ CellKey) (any, error) {
		if i == 3 {
			return nil, fmt.Errorf("poisoned workload")
		}
		return chaosCompute(i, keys[i])
	})
	var qerr *QuarantineError
	if !errors.As(err, &qerr) {
		t.Fatalf("err = %v, want *QuarantineError", err)
	}
	if len(qerr.Cells) != 1 || qerr.Cells[0].Index != 3 {
		t.Fatalf("quarantined %+v, want exactly cell 3", qerr.Cells)
	}
	if prog.Quarantined != 1 || prog.Failed != 1 || prog.Computed != 7 {
		t.Errorf("progress %+v, want 1 quarantined / 1 failed / 7 computed", prog)
	}
	for i, raw := range out {
		if i == 3 && raw != nil {
			t.Errorf("quarantined cell has a result")
		}
		if i != 3 && raw == nil {
			t.Errorf("healthy cell %d has no result", i)
		}
	}
	entries, err := st.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	last := entries[len(entries)-1]
	if last.Quarantined != 1 || last.Failed != 1 {
		t.Errorf("manifest entry %+v, want quarantined=1 failed=1", last)
	}
}

// TestViolationQuarantinedWithoutRetry: an invariant violation is
// quarantined after its one run, and the CellError exposes both the typed
// violation and the panic stack.
func TestViolationQuarantinedWithoutRetry(t *testing.T) {
	var calls atomic.Int32
	r := &Runner{Quarantine: true, Workers: 1}
	out, _, err := r.Run(context.Background(), []CellKey{testKey(0), testKey(1)},
		func(i int, _ CellKey) (any, error) {
			if i == 0 {
				calls.Add(1)
				panic(check.Violationf("test/inv", "impossible state in cell %d", i))
			}
			return cellResult{N: i}, nil
		})
	var qerr *QuarantineError
	if !errors.As(err, &qerr) || len(qerr.Cells) != 1 {
		t.Fatalf("err = %v, want one quarantined cell", err)
	}
	ce := qerr.Cells[0]
	if calls.Load() != 1 {
		t.Errorf("violating cell ran %d times, want 1 (no retry)", calls.Load())
	}
	var v *check.Violation
	if !errors.As(ce.Err, &v) || v.Invariant != "test/inv" {
		t.Fatalf("cell error %v does not expose the violation", ce.Err)
	}
	if ce.Stack == "" {
		t.Error("recovered panic lost its stack trace")
	}
	if out[1] == nil {
		t.Error("healthy cell lost its result")
	}
}

// TestStoreTornWriteRecoveryAndRepair (satellite): truncate a shard
// mid-record and append a garbage partial line; the reopened store counts
// the damage, serves every intact record, and GC rewrites the shard clean.
func TestStoreTornWriteRecoveryAndRepair(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw := json.RawMessage(`{"ipc":1.25,"mpki":3.5,"n":9}`)
	const n = 6
	for i := 0; i < n; i++ {
		s.Put(testKey(i), raw)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail of one shard: drop the final newline plus a few bytes
	// of the last record (a crash mid-append), then add a garbage partial
	// line (a crash mid-line from another writer).
	shards, err := filepath.Glob(filepath.Join(dir, "??.jsonl"))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards on disk (err=%v)", err)
	}
	victim := shards[0]
	data, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, data[:len(data)-7]...), "\n{\"fp\":\"dead"...)
	if err := os.WriteFile(victim, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Corrupt() != 2 {
		t.Fatalf("corrupt = %d, want 2 (torn record + garbage line)", s2.Corrupt())
	}
	survivors := 0
	for i := 0; i < n; i++ {
		if got, ok := s2.Get(testKey(i).Fingerprint()); ok {
			survivors++
			if string(got) != string(raw) {
				t.Fatalf("surviving record %d corrupted: %s", i, got)
			}
		}
	}
	if survivors != n-1 {
		t.Fatalf("%d survivors, want %d (exactly the torn record lost)", survivors, n-1)
	}

	kept, dropped, err := s2.GC(nil)
	if err != nil {
		t.Fatal(err)
	}
	if kept != n-1 || dropped != 0 {
		t.Errorf("gc kept %d and dropped %d, want %d / 0", kept, dropped, n-1)
	}
	if s2.Corrupt() != 0 {
		t.Errorf("corrupt = %d after gc, want 0", s2.Corrupt())
	}

	// A reopen proves the shard really is clean on disk now.
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != n-1 || s3.Corrupt() != 0 {
		t.Fatalf("after gc: %d cells / %d corrupt, want %d / 0", s3.Len(), s3.Corrupt(), n-1)
	}
}

// TestDurableFlushRetriesAfterFsyncFailure: a crash-before-fsync fault
// fails the flush, but the records stay buffered and the retry lands them
// without corrupting the shard (replays are idempotent).
func TestDurableFlushRetriesAfterFsyncFailure(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s.Put(testKey(0), json.RawMessage(`{"n":1}`))
	failpoint.Enable("runlab/store/fsync", failpoint.Error, 1, 1)
	if err := s.Flush(); err == nil {
		t.Fatal("flush succeeded despite the injected fsync failure")
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || s2.Corrupt() != 0 {
		t.Fatalf("after retry: len=%d corrupt=%d, want 1/0", s2.Len(), s2.Corrupt())
	}
	if _, ok := s2.Get(testKey(0).Fingerprint()); !ok {
		t.Fatal("record lost across the failed flush")
	}
}

// TestTornAppendFailpointLeavesRecoverableShard: a torn append drops tail
// bytes on disk; the next open skips exactly the torn record and keeps
// the rest.
func TestTornAppendFailpointLeavesRecoverableShard(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// First flush lands a healthy record.
	s.Put(testKey(0), json.RawMessage(`{"n":0}`))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	// Second flush is torn mid-write. testKey fingerprints land in
	// distinct shards with overwhelming probability, but the property
	// holds either way: committed records survive, the torn one is
	// skipped.
	s.Put(testKey(1), json.RawMessage(`{"n":1}`))
	failpoint.Enable("runlab/store/append", failpoint.Torn, 1, 1, failpoint.WithTruncate(5))
	if err := s.Flush(); err == nil {
		t.Fatal("torn flush reported success")
	}
	failpoint.Reset()

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(testKey(0).Fingerprint()); !ok {
		t.Fatal("previously committed record lost to a later torn append")
	}
	if s2.Corrupt() == 0 {
		t.Fatal("torn append left no corruption marker")
	}
	// The writer's buffer still holds the record: its next flush (here,
	// on the original store) completes the write.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s3.Get(testKey(1).Fingerprint()); !ok {
		t.Fatal("record never landed after the torn append was retried")
	}
}
