package trace

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestStridedWrapsAndDeterministic(t *testing.T) {
	g, err := NewStrided(0x1000, 64, 256, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x1000, 0x1040, 0x1080, 0x10c0, 0x1000}
	for i, w := range want {
		a, ok := g.Next()
		if !ok || a.Addr != w {
			t.Fatalf("access %d = %#x,%v want %#x", i, a.Addr, ok, w)
		}
		if a.Gap != 2 {
			t.Fatalf("access %d gap = %d, want 2", i, a.Gap)
		}
		// writeEvery=4: the 4th access (i=3) is a write.
		if (i == 3) != a.Write {
			t.Fatalf("access %d write = %v", i, a.Write)
		}
	}
	g.Reset()
	a, _ := g.Next()
	if a.Addr != 0x1000 {
		t.Errorf("after Reset first addr = %#x", a.Addr)
	}
}

func TestStridedRejectsBadArgs(t *testing.T) {
	if _, err := NewStrided(0, 0, 64, 0, 0, 1); err == nil {
		t.Error("zero stride accepted")
	}
	if _, err := NewStrided(0, 64, 0, 0, 0, 1); err == nil {
		t.Error("zero footprint accepted")
	}
}

func TestZipfStaysInFootprintAndAligned(t *testing.T) {
	const base, footprint, line = 1 << 20, 1 << 16, 64
	g, err := NewZipf(base, footprint, line, 0.9, 3, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i := 0; i < 20000; i++ {
		a, ok := g.Next()
		if !ok {
			t.Fatal("zipf stream ended")
		}
		if a.Addr < base || a.Addr >= base+footprint {
			t.Fatalf("addr %#x outside [%#x,%#x)", a.Addr, base, uint64(base+footprint))
		}
		if a.Addr%line != 0 {
			t.Fatalf("addr %#x not line-aligned", a.Addr)
		}
		if a.Write {
			writes++
		}
	}
	// 30% write fraction: expect 6000 ± generous slack.
	if writes < 5000 || writes > 7000 {
		t.Errorf("writes = %d of 20000, want ~6000", writes)
	}
}

func TestZipfSkewConcentratesAccesses(t *testing.T) {
	// Higher theta must concentrate more mass on fewer lines.
	conc := func(theta float64) float64 {
		g, err := NewZipf(0, 1<<20, 64, theta, 0, 0, 11)
		if err != nil {
			t.Fatal(err)
		}
		counts := map[uint64]int{}
		const n = 50000
		for i := 0; i < n; i++ {
			a, _ := g.Next()
			counts[a.Addr]++
		}
		// Mass on lines with >= 10 hits.
		hot := 0
		for _, c := range counts {
			if c >= 10 {
				hot += c
			}
		}
		return float64(hot) / n
	}
	uniform, skewed := conc(0.0), conc(1.2)
	if skewed <= uniform+0.1 {
		t.Errorf("zipf skew has no effect: hot mass uniform=%.3f skewed=%.3f", uniform, skewed)
	}
}

func TestZipfDeterministicAcrossReset(t *testing.T) {
	g, _ := NewZipf(0, 1<<16, 64, 0.8, 1, 0.2, 42)
	first := Collect(g, 100)
	g.Reset()
	second := Collect(g, 100)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("access %d differs after Reset: %+v vs %+v", i, first[i], second[i])
		}
	}
}

func TestZipfRejectsBadArgs(t *testing.T) {
	if _, err := NewZipf(0, 1<<16, 63, 1, 0, 0, 1); err == nil {
		t.Error("non-power-of-two line accepted")
	}
	if _, err := NewZipf(0, 32, 64, 1, 0, 0, 1); err == nil {
		t.Error("footprint < line accepted")
	}
	if _, err := NewZipf(0, 1<<16, 64, -1, 0, 0, 1); err == nil {
		t.Error("negative theta accepted")
	}
	if _, err := NewZipf(0, 1<<16, 64, 1, 0, 1.5, 1); err == nil {
		t.Error("write fraction > 1 accepted")
	}
}

func TestPointerChaseCoversFootprint(t *testing.T) {
	g, err := NewPointerChase(0, 64*256, 64, 0, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 5000; i++ {
		a, _ := g.Next()
		if a.Addr >= 64*256 || a.Addr%64 != 0 {
			t.Fatalf("bad addr %#x", a.Addr)
		}
		seen[a.Addr] = true
	}
	if len(seen) < 128 {
		t.Errorf("pointer chase visited only %d/256 lines; walk is degenerate", len(seen))
	}
}

func TestStreamSequentialWithHotRegion(t *testing.T) {
	g, err := NewStream(0, 64*1000, 64, 64*4, 10, 0, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := 0, 0
	prev := int64(-64)
	for i := 0; i < 1000; i++ {
		a, _ := g.Next()
		if a.Addr < 64*4 && int64(a.Addr) != prev+64 {
			hot++ // jumped into hot region
		} else {
			cold++
			prev = int64(a.Addr)
		}
	}
	if hot == 0 {
		t.Error("no hot-region accesses observed")
	}
	if cold < 800 {
		t.Errorf("cold (sequential) accesses = %d, want dominant", cold)
	}
}

func TestMixedRespectsWeights(t *testing.T) {
	a, _ := NewStrided(0, 64, 64, 0, 0, 1)     // always addr 0
	b, _ := NewStrided(1<<30, 64, 64, 0, 0, 1) // always addr 1<<30
	g, err := NewMixed("mix", []Generator{a, b}, []float64{3, 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	var loCount int
	const n = 10000
	for i := 0; i < n; i++ {
		acc, _ := g.Next()
		if acc.Addr < 1<<30 {
			loCount++
		}
	}
	frac := float64(loCount) / n
	if frac < 0.70 || frac > 0.80 {
		t.Errorf("component A fraction = %.3f, want ~0.75", frac)
	}
}

func TestMixedRejectsBadArgs(t *testing.T) {
	a, _ := NewStrided(0, 64, 64, 0, 0, 1)
	if _, err := NewMixed("m", nil, nil, 1); err == nil {
		t.Error("empty mixed accepted")
	}
	if _, err := NewMixed("m", []Generator{a}, []float64{-1}, 1); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewMixed("m", []Generator{a}, []float64{0}, 1); err == nil {
		t.Error("zero weight sum accepted")
	}
}

func TestSharedRegionRedirects(t *testing.T) {
	inner, _ := NewStrided(1<<40, 64, 1<<20, 0, 0, 1)
	g, err := NewSharedRegion(inner, 0, 1<<16, 64, 0.5, 0.4, 13)
	if err != nil {
		t.Fatal(err)
	}
	sharedCount := 0
	const n = 10000
	for i := 0; i < n; i++ {
		a, _ := g.Next()
		if a.Addr < 1<<16 {
			sharedCount++
		} else if a.Addr < 1<<40 {
			t.Fatalf("addr %#x in neither region", a.Addr)
		}
	}
	frac := float64(sharedCount) / n
	if frac < 0.45 || frac > 0.55 {
		t.Errorf("shared fraction = %.3f, want ~0.5", frac)
	}
}

func TestLimitEndsStream(t *testing.T) {
	inner, _ := NewStrided(0, 64, 1<<20, 0, 0, 1)
	g := NewLimit(inner, 5)
	got := Collect(g, 100)
	if len(got) != 5 {
		t.Fatalf("limit yielded %d accesses, want 5", len(got))
	}
	if _, ok := g.Next(); ok {
		t.Error("stream continued past limit")
	}
	g.Reset()
	if _, ok := g.Next(); !ok {
		t.Error("stream did not restart after Reset")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	f := func(addrs []uint64, gaps []uint32) bool {
		var accs []Access
		for i, a := range addrs {
			acc := Access{Addr: a, Write: i%2 == 0}
			if i < len(gaps) {
				acc.Gap = gaps[i]
			}
			accs = append(accs, acc)
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, accs); err != nil {
			return false
		}
		got, err := ReadTrace(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(accs) {
			return false
		}
		for i := range accs {
			if got[i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace file at all"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Truncated body.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Access{{Addr: 1}, {Addr: 2}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadTrace(bytes.NewReader(raw[:len(raw)-4])); err == nil {
		t.Error("truncated trace accepted")
	}
}

func TestReplay(t *testing.T) {
	accs := []Access{{Addr: 1}, {Addr: 2}, {Addr: 3}}
	g := NewReplay("r", accs)
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	got := Collect(g, 10)
	if len(got) != 3 || got[2].Addr != 3 {
		t.Fatalf("collected %v", got)
	}
	g.Reset()
	a, ok := g.Next()
	if !ok || a.Addr != 1 {
		t.Error("Reset did not rewind replay")
	}
}

func TestAnnotateNextUse(t *testing.T) {
	// Lines (64B): A=0, B=64, A, C=128, B. Next use of index 0 is 2, of 1
	// is 4; 2, 3, 4 are last uses.
	accs := []Access{{Addr: 0}, {Addr: 64}, {Addr: 0}, {Addr: 128}, {Addr: 64}}
	next, err := AnnotateNextUse(accs, 64)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{2, 4, NoNextUse, NoNextUse, NoNextUse}
	for i := range want {
		if next[i] != want[i] {
			t.Errorf("next[%d] = %d, want %d", i, next[i], want[i])
		}
	}
}

func TestAnnotateNextUseSubLineAliasing(t *testing.T) {
	// Two addresses in the same 64B line must alias.
	accs := []Access{{Addr: 0}, {Addr: 32}}
	next, err := AnnotateNextUse(accs, 64)
	if err != nil {
		t.Fatal(err)
	}
	if next[0] != 1 {
		t.Errorf("next[0] = %d, want 1 (same line)", next[0])
	}
}

func TestAnnotateNextUseRejectsBadLine(t *testing.T) {
	if _, err := AnnotateNextUse(nil, 0); err == nil {
		t.Error("line size 0 accepted")
	}
	if _, err := AnnotateNextUse(nil, 48); err == nil {
		t.Error("non-power-of-two line accepted")
	}
}

func BenchmarkZipfNext(b *testing.B) {
	g, _ := NewZipf(0, 64<<20, 64, 0.9, 2, 0.25, 1)
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkAnnotateNextUse(b *testing.B) {
	g, _ := NewZipf(0, 1<<24, 64, 0.9, 0, 0, 1)
	accs := Collect(g, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnnotateNextUse(accs, 64); err != nil {
			b.Fatal(err)
		}
	}
}

func TestZipfScrambleIsBijective(t *testing.T) {
	// Non-power-of-two footprints exercise the cycle-walking permutation:
	// with low skew and enough draws, (nearly) every line must be
	// reachable — a lossy scramble silently shrinks the footprint.
	const lines = 1536 // 3 × 512: not a power of two
	g, err := NewZipf(0, lines*64, 64, 0.1, 0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < lines*100; i++ {
		a, _ := g.Next()
		seen[a.Addr] = true
	}
	if len(seen) < lines*95/100 {
		t.Errorf("only %d/%d lines reachable; scramble is not bijective", len(seen), lines)
	}
}

func TestStridedCoversFootprintAcrossSweeps(t *testing.T) {
	// Column-major semantics: repeated sweeps must eventually visit every
	// line of the footprint, not just footprint/stride addresses.
	const footprint, stride = 64 * 64, 64 * 8 // 64 lines, stride 8 lines
	g, err := NewStrided(0, stride, footprint, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 64*4; i++ {
		a, _ := g.Next()
		seen[a.Addr>>6] = true
	}
	if len(seen) != 64 {
		t.Errorf("strided sweeps visited %d/64 lines", len(seen))
	}
}

func TestReadTraceNeverPanicsOnGarbage(t *testing.T) {
	// Robustness fuzz-lite: mutated headers and truncated bodies must
	// produce errors, never panics or absurd allocations.
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []Access{{Addr: 1}, {Addr: 2, Write: true}, {Addr: 3}}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	state := uint64(9)
	for trial := 0; trial < 500; trial++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		mut := append([]byte(nil), good...)
		// Flip a few random bytes.
		for k := 0; k < 3; k++ {
			state = state*6364136223846793005 + 1
			mut[state%uint64(len(mut))] ^= byte(state >> 32)
		}
		// Random truncation half the time.
		if state%2 == 0 {
			mut = mut[:state%uint64(len(mut)+1)]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("trial %d: ReadTrace panicked: %v", trial, r)
				}
			}()
			accs, err := ReadTrace(bytes.NewReader(mut))
			if err == nil && len(accs) > 3 {
				t.Fatalf("trial %d: corrupted trace decoded to %d records", trial, len(accs))
			}
		}()
	}
}
