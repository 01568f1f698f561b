package zkv

import (
	"bytes"
	"fmt"
	"testing"

	"zcache/internal/hash"
	"zcache/internal/zkvproto"
)

// fillResident inserts n keys and returns the ones actually resident
// afterwards (insertion itself can evict under pressure), keyed by string.
func fillResident(t *testing.T, s *Store, n int) map[string][]byte {
	t.Helper()
	resident := make(map[string][]byte)
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("range-key-%05d", i))
		val := []byte(fmt.Sprintf("value-%05d", i))
		if err := s.Set(key, val); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		key := []byte(fmt.Sprintf("range-key-%05d", i))
		if v, ok := s.Get(key, nil); ok {
			resident[string(key)] = v
		}
	}
	return resident
}

// TestMigrateRangePagination: a full-circle paged scan returns every
// resident entry exactly once — no duplicates, no gaps — regardless of
// page size.
func TestMigrateRangePagination(t *testing.T) {
	s, err := Open(Config{Shards: 2, Ways: 4, Rows: 256, Levels: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resident := fillResident(t, s, 1000)

	for _, pageBytes := range []int{128, 1 << 10, 1 << 20} {
		seen := make(map[string][]byte)
		var cursor uint64
		pages := 0
		for {
			buf, next, count := s.MigrateRange(0, 0, cursor, pageBytes, nil)
			pages++
			rest := buf
			for i := 0; i < count; i++ {
				var e zkvproto.MigrateEntry
				var err error
				e, rest, err = decodeOneEntry(rest)
				if err != nil {
					t.Fatal(err)
				}
				if _, dup := seen[string(e.Key)]; dup {
					t.Fatalf("page size %d: key %q returned twice", pageBytes, e.Key)
				}
				seen[string(e.Key)] = e.Val
			}
			if len(rest) != 0 {
				t.Fatalf("page size %d: %d stray bytes after %d entries", pageBytes, len(rest), count)
			}
			if next == 0 {
				break
			}
			if next <= cursor {
				t.Fatalf("cursor did not advance: %d -> %d", cursor, next)
			}
			cursor = next
		}
		if len(seen) != len(resident) {
			t.Fatalf("page size %d: scan returned %d entries, store holds %d", pageBytes, len(seen), len(resident))
		}
		for k, v := range resident {
			if got, ok := seen[k]; !ok || !bytes.Equal(got, v) {
				t.Fatalf("page size %d: key %q missing or wrong", pageBytes, k)
			}
		}
		if pageBytes == 128 && pages < 10 {
			t.Fatalf("128-byte pages produced only %d pages; budget not honored", pages)
		}
	}
}

// TestMigrateRangeArc: an arc scan returns exactly the resident keys whose
// ring point falls in the arc.
func TestMigrateRangeArc(t *testing.T) {
	s, err := Open(Config{Shards: 2, Ways: 4, Rows: 256, Levels: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	resident := fillResident(t, s, 800)

	const start, end = uint64(1) << 62, uint64(3) << 62
	want := make(map[string]bool)
	for k := range resident {
		if zkvproto.InArc(zkvproto.RingPoint(hash.Bytes64([]byte(k))), start, end) {
			want[k] = true
		}
	}
	if len(want) == 0 || len(want) == len(resident) {
		t.Fatalf("arc selects %d of %d keys; test is vacuous", len(want), len(resident))
	}

	got := make(map[string]bool)
	var cursor uint64
	for {
		buf, next, count := s.MigrateRange(start, end, cursor, 1<<20, nil)
		rest := buf
		for i := 0; i < count; i++ {
			var e zkvproto.MigrateEntry
			var err error
			e, rest, err = decodeOneEntry(rest)
			if err != nil {
				t.Fatal(err)
			}
			got[string(e.Key)] = true
		}
		if next == 0 {
			break
		}
		cursor = next
	}
	if len(got) != len(want) {
		t.Fatalf("arc scan returned %d keys, want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("arc scan missed %q", k)
		}
	}
}

// TestForgetRange: drops exactly the arc's resident keys, bypasses the
// evict hook and eviction counters, and leaves the rest untouched.
func TestForgetRange(t *testing.T) {
	s, err := Open(Config{Shards: 2, Ways: 4, Rows: 256, Levels: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hookFired := 0
	s.SetEvictHook(func(shard int, line uint64) { hookFired++ })
	resident := fillResident(t, s, 800)
	hookBefore, evictBefore := hookFired, s.Stats().Evictions

	const start, end = uint64(1) << 62, uint64(3) << 62
	inArc := func(k string) bool {
		return zkvproto.InArc(zkvproto.RingPoint(hash.Bytes64([]byte(k))), start, end)
	}
	want := 0
	for k := range resident {
		if inArc(k) {
			want++
		}
	}

	lenBefore := s.Len()
	dropped := s.ForgetRange(start, end)
	if dropped != want {
		t.Fatalf("dropped %d, want %d", dropped, want)
	}
	if got := s.Len(); got != lenBefore-dropped {
		t.Fatalf("Len %d after forget, want %d", got, lenBefore-dropped)
	}
	if hookFired != hookBefore {
		t.Fatal("forget drops fired the evict hook")
	}
	if got := s.Stats().Evictions; got != evictBefore {
		t.Fatalf("forget drops counted as evictions (%d -> %d)", evictBefore, got)
	}
	for k, v := range resident {
		got, ok := s.Get([]byte(k), nil)
		if inArc(k) && ok {
			t.Fatalf("forgotten key %q still resident", k)
		}
		if !inArc(k) && (!ok || !bytes.Equal(got, v)) {
			t.Fatalf("unrelated key %q damaged by forget", k)
		}
	}

	// Idempotence: a second forget finds nothing.
	if again := s.ForgetRange(start, end); again != 0 {
		t.Fatalf("second forget dropped %d", again)
	}
	// Checkpoint on a memory-only store is trivially clean.
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
}

// TestServerMigratePageSize: over the wire, the client owns a MIGRATE
// page's size and the server only caps it. A request for 512 bytes gets
// pages of at most 512 entry bytes, or of one entry when that entry alone is
// larger; a request for 0 or for more than 256KiB gets pages capped at
// 256KiB.
func TestServerMigratePageSize(t *testing.T) {
	srv, addr, errc := startServer(t, ServerConfig{})
	defer shutdownServer(t, srv, errc)
	cl, err := zkvproto.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// 400 entries of about 80 bytes and 300 of about 1KiB: 340KiB in all,
	// in a store of 2048 slots.
	for i := 0; i < 700; i++ {
		val := bytes.Repeat([]byte{byte(i)}, 64)
		if i%7 < 3 {
			val = bytes.Repeat([]byte{byte(i)}, 1024)
		}
		if err := cl.Set([]byte(fmt.Sprintf("page-key-%04d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	entryBytes := func(entries []zkvproto.MigrateEntry) (n, largest int) {
		for _, e := range entries {
			size := zkvproto.MigrateEntrySize(len(e.Key), len(e.Val))
			n += size
			largest = max(largest, size)
		}
		return n, largest
	}

	var cursor uint64
	total, shared, alone := 0, 0, 0
	for {
		next, entries, err := cl.Migrate(zkvproto.MigrateReq{Cursor: cursor, MaxBytes: 512})
		if err != nil {
			t.Fatal(err)
		}
		n, _ := entryBytes(entries)
		switch {
		case len(entries) > 1 && n > 512:
			t.Fatalf("page of %d entries holds %d entry bytes, asked for 512", len(entries), n)
		case len(entries) > 1:
			shared++
		case n > 512:
			alone++
		}
		total += n
		if next == 0 {
			break
		}
		cursor = next
	}
	if shared == 0 || alone == 0 {
		t.Fatalf("512-byte scan: %d shared pages, %d single oversized entries; want both", shared, alone)
	}
	if total <= 256<<10 {
		t.Fatalf("store holds %d entry bytes, too few to reach the 256KiB cap", total)
	}

	for _, asked := range []uint32{0, 256<<10 + 1, 1 << 20} {
		next, entries, err := cl.Migrate(zkvproto.MigrateReq{MaxBytes: asked})
		if err != nil {
			t.Fatal(err)
		}
		n, largest := entryBytes(entries)
		if next == 0 || n > 256<<10 || n+largest <= 256<<10 {
			t.Fatalf("asked for %d: first page holds %d entry bytes (next %d), want the 256KiB cap", asked, n, next)
		}
	}
}

// decodeOneEntry peels one wire-encoded migrate entry off buf (test-side
// mirror of the page decoder, without the page header).
func decodeOneEntry(buf []byte) (zkvproto.MigrateEntry, []byte, error) {
	page := zkvproto.BeginMigratePage(nil)
	page = append(page, buf...)
	zkvproto.PatchMigratePage(page, 0, 0, 1)
	_, entries, err := decodePrefix(page)
	if err != nil {
		return zkvproto.MigrateEntry{}, nil, err
	}
	e := entries[0]
	consumed := zkvproto.MigrateEntrySize(len(e.Key), len(e.Val))
	return e, buf[consumed:], nil
}

// decodePrefix decodes a page that may carry fewer entries than its byte
// tail suggests (DecodeMigratePage rejects trailing bytes; re-frame with
// just the first entry's bytes).
func decodePrefix(page []byte) (uint64, []zkvproto.MigrateEntry, error) {
	next, entries, err := zkvproto.DecodeMigratePage(page)
	if err == nil {
		return next, entries, nil
	}
	// Trailing bytes beyond entry 1: shrink to the first entry's frame.
	const hdr = 12
	if len(page) < hdr+6 {
		return 0, nil, err
	}
	klen := int(page[hdr])<<8 | int(page[hdr+1])
	vlen := int(page[hdr+2])<<24 | int(page[hdr+3])<<16 | int(page[hdr+4])<<8 | int(page[hdr+5])
	end := hdr + 6 + klen + vlen
	if end > len(page) {
		return 0, nil, err
	}
	return zkvproto.DecodeMigratePage(page[:end])
}
