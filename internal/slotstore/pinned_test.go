package slotstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zcache/internal/hash"
)

// The pinned image: testdata/pr16.slc was written by the tree at 21ac8db
// (PR 16, the first SLC2 build) with writePinnedImage below, before the
// shard's cells moved into the slot file. It holds every structure the
// format has — entries with keys of 1–24 bytes and values of 0–200, slots
// that were relocated, deleted and overwritten past their extent, a heap
// that grew once and free lists in several classes. Any later build must
// open it warm and find exactly these entries; regenerating it defeats the
// purpose (SLOTSTORE_WRITE_PINNED=1 does, for a deliberate format change).
const (
	pinnedPath     = "testdata/pr16.slc"
	pinnedDigest   = "d11658fce878c91f65072b28f83d80c57559dfa4f472319a6877adda06050c50"
	pinnedResident = 376
)

func pinnedConfig() Config {
	return Config{
		Slots: 512,
		Seed:  0x16, Ways: 4, Levels: 2, Rows: 128,
		Policy: 0, Shard: 1, ShardCount: 2,
	}
}

// pinnedEntry derives entry i's key and value: lengths and bytes all follow
// from i and the version, so the writer needs no table.
func pinnedEntry(i, ver int) (key, val []byte) {
	h := hash.Mix64(uint64(i)<<8 | uint64(ver))
	key = make([]byte, 1+i%24)
	for j := range key {
		key[j] = byte(i>>uint(8*(j%2))) ^ byte(j*31)
	}
	val = make([]byte, h%201)
	for j := range val {
		val[j] = byte(h>>uint(8*(j%8))) + byte(j)
	}
	return key, val
}

func writePinnedImage(t *testing.T, path string) {
	cfg := pinnedConfig()
	s, err := Create(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	batch := func(fn func()) {
		t.Helper()
		if err := s.Begin(); err != nil {
			t.Fatal(err)
		}
		fn()
		if err := s.End(); err != nil {
			t.Fatal(err)
		}
	}
	set := func(slot, i, ver int) {
		t.Helper()
		key, val := pinnedEntry(i, ver)
		batch(func() {
			if _, err := s.SetSlot(slot, hash.Bytes64(key), key, val); err != nil {
				t.Fatal(err)
			}
		})
	}
	// Entry i starts in slot i; the upper 112 slots stay empty for moves.
	for i := 0; i < 400; i++ {
		set(i, i, 0)
	}
	for i := 0; i < 400; i += 7 { // overwrites: some fit, some outgrow their extent
		set(i, i, 1)
	}
	for i := 3; i < 400; i += 11 { // deletions; the slots keep their extents
		batch(func() { s.ClearSlot(i) })
	}
	for i := 5; i < 400; i += 5 { // relocations into the empty upper slots
		batch(func() { s.MoveSlot(i, 400+i/5) })
	}
	for i := 3; i < 400; i += 33 { // new tenants in deleted slots
		set(i, 1000+i, 0)
	}
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
}

func TestPinnedImageOpensWarm(t *testing.T) {
	if !Supported() {
		t.Skip("slotstore unsupported on this platform")
	}
	if os.Getenv("SLOTSTORE_WRITE_PINNED") != "" {
		writePinnedImage(t, pinnedPath)
	}
	raw, err := os.ReadFile(pinnedPath)
	if err != nil {
		t.Fatal(err)
	}
	cfg := pinnedConfig()
	// The fixture must keep exercising what it was built for.
	initial := heapBase(cfg.Slots) + roundUp(cfg.Slots*heapBytesPerSlot, growQuantum)
	if len(raw) <= initial {
		t.Fatalf("pinned image is %d bytes: its heap never grew past the initial %d", len(raw), initial)
	}
	free := 0
	for c := 0; c < numClasses; c++ {
		if le.Uint64(raw[offFreeHeads+8*c:]) != 0 {
			free++
		}
	}
	if free < 2 {
		t.Fatalf("pinned image has %d non-empty free lists", free)
	}

	path := filepath.Join(t.TempDir(), "pinned.slc")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("pinned image does not open warm: %v", err)
	}
	defer s.Close(false)
	sum := sha256.New()
	n := 0
	s.Range(func(slot int, fp uint64, key, val []byte) bool {
		fmt.Fprintf(sum, "%d %016x %d:%x %d:%x\n", slot, fp, len(key), key, len(val), val)
		n++
		return true
	})
	if got := hex.EncodeToString(sum.Sum(nil)); got != pinnedDigest || n != pinnedResident || s.Resident() != pinnedResident {
		t.Fatalf("pinned image: %d entries (Resident %d) digest %s, recorded %d entries digest %s",
			n, s.Resident(), got, pinnedResident, pinnedDigest)
	}
}
