package sample

import (
	"reflect"
	"testing"

	"zcache/internal/hash"
)

// testIntervals builds n intervals over a synthetic stream with three
// distinct phase behaviours, so clustering has real structure to find.
func testIntervals(n int) []Interval {
	lines := make([]uint64, n*500)
	for i := range lines {
		phase := (i / 500) % 3
		r := hash.Mix64(uint64(i) + uint64(phase)*7919 + 1)
		switch phase {
		case 0: // streaming: all cold
			lines[i] = uint64(1<<30) + uint64(i)
		case 1: // hot loop
			lines[i] = r % 128
		default: // mixed
			lines[i] = r % 8192
		}
	}
	return Split(len(lines), func(i int) uint64 { return lines[i] }, n)
}

// TestClustersDeterministic: same (intervals, k, seed) must give the same
// clusters — representative choice included — across repeated calls.
func TestClustersDeterministic(t *testing.T) {
	ivs := testIntervals(24)
	ref := Clusters(ivs, 6, 42)
	if len(ref) == 0 {
		t.Fatal("no clusters")
	}
	for i := 0; i < 5; i++ {
		if got := Clusters(ivs, 6, 42); !reflect.DeepEqual(ref, got) {
			t.Fatalf("run %d differs:\n%+v\n%+v", i, ref, got)
		}
	}
	// A different seed is allowed to differ; it must still be valid.
	other := Clusters(ivs, 6, 43)
	if len(other) == 0 {
		t.Fatal("seed 43: no clusters")
	}
}

// TestClustersPartition: every interval appears in exactly one cluster, the
// representative is a member, clusters are ordered by representative, and
// weights reconstruct the full stream's reference count.
func TestClustersPartition(t *testing.T) {
	ivs := testIntervals(24)
	cls := Clusters(ivs, 6, 1)
	seen := map[int]bool{}
	var weighted float64
	lastRep := -1
	for _, cl := range cls {
		if cl.Rep <= lastRep {
			t.Errorf("clusters not ordered by rep: %d after %d", cl.Rep, lastRep)
		}
		lastRep = cl.Rep
		repIsMember := false
		for _, m := range cl.Members {
			if seen[m] {
				t.Errorf("interval %d in two clusters", m)
			}
			seen[m] = true
			if m == cl.Rep {
				repIsMember = true
			}
		}
		if !repIsMember {
			t.Errorf("rep %d not among its cluster's members", cl.Rep)
		}
		weighted += cl.Weight * float64(ivs[cl.Rep].Len())
	}
	if len(seen) != len(ivs) {
		t.Errorf("%d of %d intervals assigned", len(seen), len(ivs))
	}
	var total float64
	for _, iv := range ivs {
		total += float64(iv.Len())
	}
	if diff := weighted - total; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("weighted rep lengths %.3f != total refs %.0f", weighted, total)
	}
}

// TestClustersClamp: k > n yields at most n clusters; k <= 0 yields one.
func TestClustersClamp(t *testing.T) {
	ivs := testIntervals(4)
	if cls := Clusters(ivs, 100, 1); len(cls) > 4 {
		t.Errorf("k=100 over 4 intervals gave %d clusters", len(cls))
	}
	if cls := Clusters(ivs, 0, 1); len(cls) != 1 {
		t.Errorf("k=0 gave %d clusters, want 1", len(cls))
	}
	if cls := Clusters(nil, 4, 1); cls != nil {
		t.Errorf("no intervals gave %d clusters", len(cls))
	}
}

// TestSplitCrossIntervalReuse: a line touched in interval 0 and again in
// interval 1 must score as a reuse in interval 1, not cold — interval
// signatures see the whole stream's history.
func TestSplitCrossIntervalReuse(t *testing.T) {
	// 8 accesses, 2 intervals of 4; line 7 touched at index 0 and 5.
	lines := []uint64{7, 1, 2, 3, 4, 7, 5, 6}
	ivs := Split(len(lines), func(i int) uint64 { return lines[i] }, 2)
	if len(ivs) != 2 {
		t.Fatalf("got %d intervals", len(ivs))
	}
	if ivs[0].Sig.Cold != 4 {
		t.Errorf("interval 0 cold = %d, want 4", ivs[0].Sig.Cold)
	}
	if ivs[1].Sig.Cold != 3 {
		t.Errorf("interval 1 cold = %d, want 3 (line 7 is a reuse)", ivs[1].Sig.Cold)
	}
	if ivs[1].Sig.Hist[bucketOf(5)] != 1 {
		t.Errorf("interval 1 missing the distance-5 reuse: %+v", ivs[1].Sig)
	}
}
