package tlb

import (
	"testing"

	"zcache/internal/cache"
	"zcache/internal/hash"
)

func TestConfigValidation(t *testing.T) {
	good := PaperlikeConfig(ZCacheTLB)
	if _, err := New(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Entries = 48
	if _, err := New(bad); err == nil {
		t.Error("non-power-of-two entries accepted")
	}
	bad = good
	bad.PageBits = 5
	if _, err := New(bad); err == nil {
		t.Error("absurd page size accepted")
	}
	bad = good
	bad.PageWalkCycles = 0
	if _, err := New(bad); err == nil {
		t.Error("free page walks accepted")
	}
	bad = good
	bad.Ways = 5
	if _, err := New(bad); err == nil {
		t.Error("ragged ways accepted")
	}
	bad = good
	bad.Design = cache.OrgRandomCandidates
	if _, err := New(bad); err == nil {
		t.Error("unknown design accepted")
	}
}

func TestSamePageHits(t *testing.T) {
	tl, err := New(PaperlikeConfig(ZCacheTLB))
	if err != nil {
		t.Fatal(err)
	}
	if hit, _ := tl.Translate(0x12345); hit {
		t.Error("cold translation hit")
	}
	// Any address in the same 4KB page must hit.
	if hit, extra := tl.Translate(0x12FFF); !hit || extra != 0 {
		t.Error("same-page access missed")
	}
	if hit, _ := tl.Translate(0x13000); hit {
		t.Error("next page hit without a walk")
	}
	st := tl.Stats()
	if st.PageWalks != 2 || st.StallCycles != 60 {
		t.Errorf("walks=%d stall=%d, want 2/60", st.PageWalks, st.StallCycles)
	}
}

func TestComparatorCounts(t *testing.T) {
	fa, _ := New(PaperlikeConfig(FullyAssociative))
	z, _ := New(PaperlikeConfig(ZCacheTLB))
	if fa.Stats().LookupComparators != 64 {
		t.Errorf("CAM comparators = %d, want 64", fa.Stats().LookupComparators)
	}
	if z.Stats().LookupComparators != 4 {
		t.Errorf("zcache comparators = %d, want 4", z.Stats().LookupComparators)
	}
}

// pageStream drives a deterministic working set of pages with locality.
func pageStream(t *testing.T, tl *TLB, pages uint64, accesses int, seed uint64) {
	t.Helper()
	state := seed | 1
	for i := 0; i < accesses; i++ {
		state = hash.Mix64(state)
		var page uint64
		if state%10 < 7 {
			page = state % (pages / 4) // hot quarter
		} else {
			page = state % pages
		}
		tl.Translate(page << 12)
	}
}

func TestZCacheTLBApproachesCAMHitRate(t *testing.T) {
	// The §VIII pitch: a 4-way zcache TLB should track the fully-
	// associative hit rate (within a point or two) while activating 16x
	// fewer comparators, and beat the plain 4-way set-associative TLB.
	rates := map[cache.Org]float64{}
	for _, d := range []cache.Org{FullyAssociative, SetAssociative, ZCacheTLB} {
		tl, err := New(PaperlikeConfig(d))
		if err != nil {
			t.Fatal(err)
		}
		pageStream(t, tl, 96, 200000, 5) // working set 1.5x entries
		rates[d] = tl.HitRate()
	}
	if rates[ZCacheTLB] < rates[SetAssociative] {
		t.Errorf("zcache TLB hit rate %.4f below set-associative %.4f", rates[ZCacheTLB], rates[SetAssociative])
	}
	if rates[FullyAssociative]-rates[ZCacheTLB] > 0.02 {
		t.Errorf("zcache TLB hit rate %.4f not within 2pp of CAM %.4f", rates[ZCacheTLB], rates[FullyAssociative])
	}
}

func TestShootdown(t *testing.T) {
	tl, _ := New(PaperlikeConfig(ZCacheTLB))
	tl.Translate(0x42 << 12)
	if !tl.Invalidate(0x42 << 12) {
		t.Error("shootdown missed a resident translation")
	}
	if tl.Invalidate(0x42 << 12) {
		t.Error("second shootdown found the translation")
	}
	if hit, _ := tl.Translate(0x42 << 12); hit {
		t.Error("translation survived shootdown")
	}
}

func BenchmarkTLBTranslate(b *testing.B) {
	tl, _ := New(PaperlikeConfig(ZCacheTLB))
	state := uint64(1)
	for i := 0; i < b.N; i++ {
		state = hash.Mix64(state)
		tl.Translate((state % 256) << 12)
	}
}
