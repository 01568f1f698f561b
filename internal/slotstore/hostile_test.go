package slotstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zcache/internal/hash"
)

// reservedKey's fingerprint is Empty, the tag of an empty slot (the suffix
// was found offline by lattice reduction over FNV-1a's byte steps).
var reservedKey = append([]byte("zcache:reserved:"), 0x02, 0x0c, 0x00, 0x09, 0x06, 0x01, 0x3c, 0x0e, 0x1b, 0x1c, 0x04, 0x06, 0x1d, 0x01, 0x02, 0x0b)

// hostileImage builds a clean image with every structure validate walks:
// resident slots 0 ("alpha") and 1 ("beta") in adjacent extents, a cleared
// slot 2 that keeps its extent and its tenant's bytes, that tenant ("gone")
// written again into slot 10, a one-entry free list (slot 3 outgrew its first
// extent) and the reserved key in slot 4.
func hostileImage(t *testing.T, cfg Config) (raw []byte, s *Store) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "base.slc")
	s = mustCreate(t, path, cfg)
	put(t, s, "alpha", "value-a", 0)
	put(t, s, "beta", "value-b", 1)
	put(t, s, "gone", "value-c", 2)
	put(t, s, "grows", "v", 3)
	put(t, s, "grows", strings.Repeat("v", 40), 3)
	put(t, s, string(reservedKey), "reserved", 4)
	if err := s.Begin(); err != nil {
		t.Fatal(err)
	}
	s.ClearSlot(2)
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
	put(t, s, "gone", "value-c, again", 10)
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw, s
}

// slc1Image assembles what the previous build wrote for cfg: the SLC1
// header, an empty index and 4 KiB cells, marked clean.
func slc1Image(cfg Config) []byte {
	buckets := 8
	for buckets < 2*cfg.Slots {
		buckets <<= 1
	}
	raw := make([]byte, 4096+16*buckets+4096*cfg.Slots)
	copy(raw, "SLC1")
	le.PutUint32(raw[4:], 1)
	le.PutUint32(raw[12:], hash.Bytes64Version)
	le.PutUint64(raw[24:], uint64(cfg.Slots))
	le.PutUint64(raw[32:], 4096)
	le.PutUint64(raw[40:], cfg.Seed)
	le.PutUint64(raw[48:], cfg.Rows)
	le.PutUint32(raw[56:], uint32(cfg.Ways))
	le.PutUint32(raw[60:], uint32(cfg.Levels))
	return raw
}

// TestHostileImages: every violation of an SLC4 invariant is refused at
// Open with the error class the caller rebuilds on — never a panic, never a
// store. Each case breaks one thing in an otherwise valid clean image, and
// the reason is matched so a case cannot pass on somebody else's check.
func TestHostileImages(t *testing.T) {
	cfg := testConfig()
	base, s := hostileImage(t, cfg)
	tagAt := func(id int) int { return s.slot(id) + slotTag }
	locAt := func(id int) int { return s.slot(id) + slotLoc }
	get := func(raw []byte, off int) uint64 { return le.Uint64(raw[off:]) }
	set := func(raw []byte, off int, v uint64) { le.PutUint64(raw[off:], v) }
	// extent and setExtent read and write slot id's locator as a byte
	// offset and a size class; head is the offset of its lengths word.
	extent := func(raw []byte, id int) (off, class int) { return located(get(raw, locAt(id))) }
	setExtent := func(raw []byte, id, off, class int) { set(raw, locAt(id), locator(off, class)) }
	head := func(raw []byte, id int) int { off, _ := extent(raw, id); return off }
	freeClass := sizeClass(1 + 1 + 1) // "grows"+"v" and its lengths: slot 3's first, freed extent
	freeHead := offFreeHeads + 8*freeClass
	if get(base, freeHead) == 0 {
		t.Fatal("base image has no free extent to corrupt")
	}
	if a, ac := extent(base, 0); a+classWords(ac)*8 != head(base, 1) {
		t.Fatal("base image's first two extents are not adjacent")
	}

	cases := []struct {
		name   string
		mutate func(raw []byte) []byte
		want   error
		reason string
	}{
		{"extent past EOF", func(raw []byte) []byte {
			_, class := extent(raw, 0)
			setExtent(raw, 0, len(raw), class)
			return raw
		}, ErrNeedsRebuild, "outside the heap"},
		{"extent past the carved heap", func(raw []byte) []byte {
			_, class := extent(raw, 0)
			setExtent(raw, 0, s.heapBase+int(get(raw, offHeapUsed)), class)
			return raw
		}, ErrNeedsRebuild, "outside the heap"},
		{"extent inside the slot table", func(raw []byte) []byte {
			_, class := extent(raw, 0)
			setExtent(raw, 0, headerBytes, class)
			return raw
		}, ErrNeedsRebuild, "outside the heap"},
		{"locator offset past the heap", func(raw []byte) []byte {
			// Every offset bit set: the bounds check must not overflow.
			set(raw, locAt(0), get(raw, locAt(0))|^uint64(classMask))
			return raw
		}, ErrNeedsRebuild, "outside the heap"},
		{"misaligned extent", func(raw []byte) []byte {
			// A locator counts words; a free-list link is the one extent
			// offset that can be misaligned.
			set(raw, freeHead, get(raw, freeHead)+4)
			return raw
		}, ErrNeedsRebuild, "misaligned"},
		{"capacity of no size class", func(raw []byte) []byte {
			off, _ := extent(raw, 3)
			setExtent(raw, 3, off, numClasses)
			return raw
		}, ErrNeedsRebuild, "of no size class"},
		{"locator class field at its maximum", func(raw []byte) []byte {
			set(raw, locAt(3), get(raw, locAt(3))|classMask)
			return raw
		}, ErrNeedsRebuild, "of no size class"},
		{"klen+vlen over capacity", func(raw []byte) []byte {
			_, class := extent(raw, 0)
			set(raw, head(raw, 0), 5<<32|uint64(classWords(class))*8)
			return raw
		}, ErrNeedsRebuild, "bytes in a"},
		{"lengths fill the extent but for their own word", func(raw []byte) []byte {
			// "beta" has three words: key and value may fill two of them.
			_, class := extent(raw, 1)
			set(raw, head(raw, 1), 4<<32|uint64(classWords(class)-1)*8)
			return raw
		}, ErrNeedsRebuild, "bytes in a"},
		{"zero-length key", func(raw []byte) []byte {
			set(raw, head(raw, 0), 7)
			return raw
		}, ErrNeedsRebuild, "bytes in a"},
		{"resident without an extent", func(raw []byte) []byte {
			set(raw, tagAt(5), hash.Bytes64([]byte("ghost")))
			return raw
		}, ErrNeedsRebuild, "without an extent"},
		{"two slots sharing an extent", func(raw []byte) []byte {
			set(raw, locAt(2), get(raw, locAt(0)))
			return raw
		}, ErrNeedsRebuild, "overlap"},
		{"overlapping extents", func(raw []byte) []byte {
			setExtent(raw, 2, head(raw, 0)+8, 0)
			return raw
		}, ErrNeedsRebuild, "overlap"},
		{"locators straddling two extents", func(raw []byte) []byte {
			// Two words: the last of slot 0's extent, the first of slot 1's.
			setExtent(raw, 2, head(raw, 1)-8, 1)
			return raw
		}, ErrNeedsRebuild, "overlap"},
		{"free extent owned by a slot", func(raw []byte) []byte {
			setExtent(raw, 6, int(get(raw, freeHead)), 1)
			return raw
		}, ErrNeedsRebuild, "overlap"},
		{"free list leaves the heap", func(raw []byte) []byte {
			set(raw, freeHead, uint64(len(raw)))
			return raw
		}, ErrNeedsRebuild, "outside the heap"},
		{"free list loops", func(raw []byte) []byte {
			set(raw, int(get(raw, freeHead)), get(raw, freeHead))
			return raw
		}, ErrNeedsRebuild, "loops"},
		{"fingerprint disagrees with key", func(raw []byte) []byte {
			raw[tagAt(1)] ^= 1
			return raw
		}, ErrNeedsRebuild, "does not match its key"},
		{"cleared slot keeps its tenant's tag", func(raw []byte) []byte {
			// The tag is the only mark of residency: slot 2's extent still
			// holds "gone", which slot 10 holds too, so the stale tag makes
			// one line resident twice.
			set(raw, tagAt(2), hash.Bytes64([]byte("gone")))
			return raw
		}, ErrNeedsRebuild, "slot 10 repeats a fingerprint"},
		{"never-used slot with a zero tag", func(raw []byte) []byte {
			set(raw, tagAt(7), 0)
			return raw
		}, ErrNeedsRebuild, "slot 7 is resident without an extent"},
		{"non-zero padding", func(raw []byte) []byte {
			raw[head(raw, 0)+8+7] = 1 // "alpha" pads 3 bytes
			return raw
		}, ErrNeedsRebuild, "padding"},
		{"heap size disagrees with file size", func(raw []byte) []byte {
			set(raw, offHeapSize, get(raw, offHeapSize)+growQuantum)
			return raw
		}, ErrNeedsRebuild, "header says"},
		{"file longer than the header says", func(raw []byte) []byte {
			return append(raw, make([]byte, growQuantum)...)
		}, ErrNeedsRebuild, "header says"},
		{"heap used over heap size", func(raw []byte) []byte {
			set(raw, offHeapUsed, get(raw, offHeapSize)+8)
			return raw
		}, ErrNeedsRebuild, "bytes used"},
		{"SLC1 file from the previous build", func([]byte) []byte {
			return slc1Image(cfg)
		}, ErrInvalidFormat, "bad magic"},
		{"SLC2 magic over an SLC1 version", func(raw []byte) []byte {
			copy(raw[offMagic:], "SLC2")
			le.PutUint32(raw[offVersion:], 1)
			return raw
		}, ErrInvalidFormat, "bad magic"},
		{"SLC3 magic over an SLC2 version", func(raw []byte) []byte {
			copy(raw[offMagic:], "SLC3")
			le.PutUint32(raw[offVersion:], 2)
			return raw
		}, ErrInvalidFormat, "bad magic"},
		{"SLC4 magic over an SLC3 version", func(raw []byte) []byte {
			le.PutUint32(raw[offVersion:], 3)
			return raw
		}, ErrInvalidFormat, "version 3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hostile.slc")
			raw := c.mutate(append([]byte(nil), base...))
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := Open(path, cfg)
			if got != nil {
				got.Close(false)
				t.Fatal("Open returned a store")
			}
			if !errors.Is(err, c.want) || !strings.Contains(err.Error(), c.reason) {
				t.Fatalf("Open = %v, want %v mentioning %q", err, c.want, c.reason)
			}
		})
	}

	// The untouched base image does open: the cases above fail for their
	// mutation, not for the fixture.
	path := filepath.Join(t.TempDir(), "base.slc")
	if err := os.WriteFile(path, base, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, err := Open(path, cfg)
	if err != nil {
		t.Fatalf("base image: %v", err)
	}
	ok.Close(false)
}

// TestDuplicateFingerprintNeedsRebuild: one fingerprint resident in two
// slots is structurally fine — two extents, two valid entries — but would be
// one line in two slots of the shard's tag array. With no stored index to
// contradict it, validate has to look for it.
func TestDuplicateFingerprintNeedsRebuild(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shard.slc")
	cfg := testConfig()
	s := mustCreate(t, path, cfg)
	put(t, s, "twin", "first", 4)
	put(t, s, "twin", "second", 21)
	if err := s.Close(true); err != nil {
		t.Fatal(err)
	}
	_, err := Open(path, cfg)
	if !errors.Is(err, ErrNeedsRebuild) || !strings.Contains(err.Error(), "repeats a fingerprint") {
		t.Fatalf("Open with a fingerprint in two slots = %v, want ErrNeedsRebuild", err)
	}
}
