package slotstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"zcache/internal/hash"
)

// The pinned image: testdata/slc4.slc was written by the first SLC4 build
// with writePinnedImage below, when slot headers shrank to a tag and an
// extent locator. It holds every structure the format has — entries with
// keys of 1–24 bytes and values of 0–200, the key whose fingerprint is
// Empty, slots that were relocated, deleted and overwritten past their
// extent, a heap that grew once and free lists in several classes. Any later
// build must open it warm and find exactly these entries; regenerating it
// defeats the purpose (SLOTSTORE_WRITE_PINNED=1 does, for a deliberate
// format change). testdata/slc3.slc and testdata/slc2.slc are the previous
// formats' pinned images, the same history (SLC2's less the reserved key):
// they must open cold.
const (
	pinnedPath     = "testdata/slc4.slc"
	pinnedDigest   = "ca60c1e961d71a0c334bdd619955099b8100db974f7047bb346c481fde96d053"
	pinnedResident = 377
	slc3Path       = "testdata/slc3.slc"
	slc2Path       = "testdata/slc2.slc"
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
	batch(func() {
		if _, err := s.SetSlot(511, hash.Bytes64(reservedKey), reservedKey, []byte("reserved")); err != nil {
			t.Fatal(err)
		}
	})
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

// TestSLC3ImageOpensCold: an image from the previous format is refused as
// foreign, so the caller starts the shard cold instead of reading its
// 32-byte headers as tags and locators.
func TestSLC3ImageOpensCold(t *testing.T) { testOpensCold(t, slc3Path) }

// TestSLC2ImageOpensCold: so is one from the format before, whose empty
// slots keep stale tags.
func TestSLC2ImageOpensCold(t *testing.T) { testOpensCold(t, slc2Path) }

func testOpensCold(t *testing.T, image string) {
	if !Supported() {
		t.Skip("slotstore unsupported on this platform")
	}
	raw, err := os.ReadFile(image)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), filepath.Base(image))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, pinnedConfig())
	if s != nil {
		s.Close(false)
	}
	if !errors.Is(err, ErrInvalidFormat) {
		t.Fatalf("Open of %s = %v, want ErrInvalidFormat", image, err)
	}
}
