package slotstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"zcache/internal/hash"
)

// fuzzConfig keeps the image small so the fuzzer explores structure, not
// zero pages.
func fuzzConfig() Config {
	return Config{
		Slots: 8,
		Seed:  11, Ways: 2, Levels: 1, Rows: 4,
		Policy: 0, Shard: 0, ShardCount: 1,
	}
}

// validImage builds a clean store file with every structure validate
// walks — two resident slots, a cleared slot that keeps its extent, and a
// free extent — and returns its bytes.
func validImage(tb testing.TB) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.slc")
	s, err := Create(path, fuzzConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Begin(); err != nil {
		tb.Fatal(err)
	}
	for i, e := range []struct{ key, val string }{
		{"fuzz-a", "v"}, {"fuzz-b", "v"}, {"fuzz-c", "v"},
		{"fuzz-b", "a value that outgrows its extent"},
	} {
		kb := []byte(e.key)
		if _, err := s.SetSlot(i%3, hash.Bytes64(kb), kb, []byte(e.val)); err != nil {
			tb.Fatal(err)
		}
	}
	s.ClearSlot(2)
	if err := s.End(); err != nil {
		tb.Fatal(err)
	}
	if err := s.Close(true); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// FuzzOpen feeds arbitrary bytes to Open as a store file. The contract
// under attack: Open returns a usable store or a classified error
// (ErrNeedsRebuild / ErrInvalidFormat / plain I/O error) — it never
// panics, and a store it does return satisfies the format invariants
// (every resident slot's tag is Line of its stored key's fingerprint, so it
// cannot serve a value under a wrong key, and every empty slot's is Empty),
// and still does after being written to.
func FuzzOpen(f *testing.F) {
	if !Supported() {
		f.Skip("slotstore unsupported on this platform")
	}
	seed := validImage(f)
	f.Add(seed)
	base := heapBase(fuzzConfig().Slots)
	f.Add(seed[:headerBytes])      // header only: table and heap truncated away
	f.Add(seed[:base])             // header and table, no heap
	f.Add(seed[:len(seed)-1])      // torn tail
	f.Add([]byte(Magic))           // magic, nothing else
	f.Add([]byte{})                // empty file
	f.Add(make([]byte, len(seed))) // all zeroes at the right size
	// One flipped byte: each header field, slot 0's tag and its locator's
	// class and offset bytes, the cleared slot's locator, and slot 0's
	// extent (the lengths word's vlen and klen, the key, its padding).
	freeClass := sizeClass(1 + 1 + 1) // the seed's free extent: lengths, "fuzz-b", "v"
	for _, off := range []int{offMagic, offVersion, offState, offHashVersion,
		offGeneration, offSlots, offHeapSize, offGeomSum, offHeapUsed,
		offFreeHeads + 8*freeClass,
		headerBytes + slotTag,
		headerBytes + slotLoc, headerBytes + slotLoc + 1, headerBytes + slotLoc + 7,
		headerBytes + 2*slotBytes + slotLoc,
		base, base + 4, base + 8, base + 15} {
		flipped := append([]byte(nil), seed...)
		flipped[off] ^= 0x41
		f.Add(flipped)
	}
	// Slots whose tag says resident where no entry is: the cleared slot
	// taking another slot's tag, and a never-used one holding a zero word.
	stale := append([]byte(nil), seed...)
	copy(stale[headerBytes+2*slotBytes+slotTag:], seed[headerBytes+slotTag:headerBytes+slotTag+8])
	f.Add(stale)
	zeroed := append([]byte(nil), seed...)
	le.PutUint64(zeroed[headerBytes+5*slotBytes+slotTag:], 0)
	f.Add(zeroed)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.slc")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(path, fuzzConfig())
		if err != nil {
			if errors.Is(err, ErrNeedsRebuild) || errors.Is(err, ErrInvalidFormat) {
				return
			}
			// Plain I/O errors (e.g. mmap of an empty file) are acceptable;
			// a store must simply never come back alongside an error.
			if s != nil {
				t.Fatalf("Open returned both a store and error %v", err)
			}
			return
		}
		defer s.Close(false)
		// The store validated: re-check the no-wrong-values invariant from
		// the outside, and that the lock-free reader follows every line in
		// the tag array to its entry.
		check := func() {
			n := 0
			v := s.View()
			s.Range(func(slot int, fp uint64, key, val []byte) bool {
				if got := hash.Bytes64(key); got != fp || v.Tag(slot) != Line(fp) {
					t.Fatalf("resident slot %d: fingerprint %#x under tag %#x, key hashes to %#x", slot, fp, v.Tag(slot), got)
				}
				if got, hit, clean := v.Read(slot, key, nil); !hit || !clean || string(got) != string(val) {
					t.Fatalf("resident slot %d: View.Read hit %t clean %t", slot, hit, clean)
				}
				gotKey, _, ok := s.Lookup(fp)
				if !ok || string(gotKey) != string(key) {
					t.Fatalf("slot %d not reachable through Lookup", slot)
				}
				n++
				return true
			})
			if n != s.Resident() {
				t.Fatalf("Range saw %d slots, Resident() = %d", n, s.Resident())
			}
		}
		check()
		// And it is safe to write to: an image whose free lists or spare
		// extents lied would corrupt a neighbour or fault here.
		if err := s.Begin(); err != nil {
			return
		}
		for id := 0; id < fuzzConfig().Slots; id++ {
			kb := []byte{'w', byte('0' + id)}
			if _, err := s.SetSlot(id, hash.Bytes64(kb), kb, make([]byte, 8*id)); err != nil {
				t.Fatalf("SetSlot(%d) on a validated image: %v", id, err)
			}
		}
		s.End()
		check()
	})
}
