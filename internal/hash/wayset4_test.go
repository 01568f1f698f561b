package hash

import "testing"

// waySet4Addrs are the inputs every WaySet4 check hashes: zero (the loop
// never runs), short line addresses (one or two 16-bit steps), full-width
// 64-bit fingerprints (all four steps), and one value per nibble position so
// every table entry class is reached.
func waySet4Addrs() []uint64 {
	addrs := []uint64{
		0, 1, 0xf, 0x10, 0xffff, 0x10000, 0x3fffff, 0xdeadbeef,
		0x0123456789abcdef, 0xfedcba9876543210, ^uint64(0), 1 << 63,
	}
	for pos := 0; pos < 16; pos++ {
		addrs = append(addrs, uint64(0xa)<<(4*pos))
	}
	rng := splitmix64(0x77617973)
	for i := 0; i < 64; i++ {
		v := rng()
		addrs = append(addrs, v, v>>40) // a fingerprint and a line address
	}
	return addrs
}

// fourH3 returns four H3 way functions seeded seed..seed+3 over rows buckets.
func fourH3(tb testing.TB, seed, rows uint64) []*H3 {
	tb.Helper()
	fns := make([]*H3, 4)
	for w := range fns {
		h, err := NewH3(seed+uint64(w), rows)
		if err != nil {
			tb.Fatal(err)
		}
		fns[w] = h
	}
	return fns
}

// checkWaySet4 builds four H3 functions over rows buckets and asserts that
// NewWaySet4 answers nil exactly above the lane bound, and that below it
// Rows4 equals the four per-way Hash values for every addr.
func checkWaySet4(t *testing.T, seed, rows uint64, addrs []uint64) {
	t.Helper()
	fns := fourH3(t, seed, rows)
	ws := NewWaySet4(fns)
	if rows > WaySet4MaxRows {
		if ws != nil {
			t.Fatalf("rows=%d: NewWaySet4 built a table past the %d-row lane bound", rows, WaySet4MaxRows)
		}
		return
	}
	if ws == nil {
		t.Fatalf("rows=%d: NewWaySet4 returned nil within the %d-row lane bound", rows, WaySet4MaxRows)
	}
	var got [4]uint64
	for _, addr := range addrs {
		ws.Rows4(addr, got[:])
		for w, h := range fns {
			if want := h.Hash(addr); got[w] != want {
				t.Fatalf("rows=%d addr=%#x way %d: Rows4 %d, per-way H3 %d", rows, addr, w, got[w], want)
			}
		}
	}
}

// TestWaySet4MatchesPerWayH3 is the "WaySet4 ≡ per-way H3" guarantee: at
// every legal row count from 1 up to the 16-bit lane bound the packed table
// reproduces the four H3 functions it was built from, and one step past the
// bound (and beyond) NewWaySet4 declines, which sends callers down the
// per-way path they already have.
func TestWaySet4MatchesPerWayH3(t *testing.T) {
	addrs := waySet4Addrs()
	for rows := uint64(1); rows <= WaySet4MaxRows<<2; rows <<= 1 {
		checkWaySet4(t, 0x5eed+rows, rows, addrs)
	}
	if WaySet4MaxRows != 1<<16 {
		t.Fatalf("lane bound moved to %d rows: DESIGN's walk-kernel section documents 65536", WaySet4MaxRows)
	}
}

// TestWaySet4NeedsFourWays pins the other nil answer: the packed table is a
// four-lane word, so any other way count declines.
func TestWaySet4NeedsFourWays(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 5, 8} {
		fns := make([]*H3, n)
		for w := range fns {
			fns[w], _ = NewH3(uint64(w)+1, 64)
		}
		if NewWaySet4(fns) != nil {
			t.Fatalf("NewWaySet4 accepted %d functions", n)
		}
	}
}

// benchRows4 times Rows4 on addresses of the given width in bits: 24 is a
// simulator line address (two table steps), 64 a zkv fingerprint (four).
func benchRows4(b *testing.B, bits uint) {
	ws := NewWaySet4(fourH3(b, 1, 4096))
	var rows [4]uint64
	var sink uint64
	for i := 0; i < b.N; i++ {
		ws.Rows4(uint64(i)*0x9e3779b97f4a7c15>>(64-bits), rows[:])
		sink += rows[0] ^ rows[3]
	}
	benchSink = sink
}

func BenchmarkWaySet4Rows4(b *testing.B)     { benchRows4(b, 24) }
func BenchmarkWaySet4Rows4Wide(b *testing.B) { benchRows4(b, 64) }

var benchSink uint64
