package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	if h.Count() != 0 {
		t.Errorf("empty Count = %d", h.Count())
	}
	if h.CDF() != nil {
		t.Error("empty CDF should be nil")
	}
	h.Add(0.05) // bin 0
	h.Add(0.15) // bin 1
	h.Add(0.95) // bin 9
	h.Add(1.0)  // clamps to bin 9
	h.Add(-0.5) // clamps to bin 0
	h.Add(1.5)  // clamps to bin 9
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	bins := h.Bins()
	if bins[0] != 2 || bins[1] != 1 || bins[9] != 3 {
		t.Errorf("bins = %v", bins)
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	f := func(samples []float64) bool {
		h := NewHistogram(32)
		for _, s := range samples {
			h.Add(math.Abs(s) / (1 + math.Abs(s))) // squash into [0,1)
		}
		cdf := h.CDF()
		if len(samples) == 0 {
			return cdf == nil
		}
		prev := 0.0
		for _, v := range cdf {
			if v < prev || v > 1+1e-12 {
				return false
			}
			prev = v
		}
		return math.Abs(cdf[len(cdf)-1]-1) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestUniformityCDF(t *testing.T) {
	// F(x) = x^n: check endpoints and a known interior value.
	cdf := UniformityCDF(16, 100)
	if len(cdf) != 100 {
		t.Fatalf("len = %d", len(cdf))
	}
	if math.Abs(cdf[99]-1) > 1e-12 {
		t.Errorf("F(1) = %g, want 1", cdf[99])
	}
	// Paper: for 16 candidates, P(e < 0.4) ~= 1e-6 (0.4^16 = 4.29e-7).
	if got := cdf[39]; got > 1e-6 {
		t.Errorf("F(0.4) with n=16 = %g, want < 1e-6 (paper's rarity claim)", got)
	}
	// Higher n must dominate (be more skewed to 1).
	lo := UniformityCDF(4, 100)
	hi := UniformityCDF(64, 100)
	for i := 0; i < 99; i++ {
		if hi[i] > lo[i]+1e-15 {
			t.Fatalf("x^64 CDF above x^4 CDF at bin %d", i)
		}
	}
}

func TestKSDistance(t *testing.T) {
	a := []float64{0.1, 0.5, 1.0}
	b := []float64{0.2, 0.4, 1.0}
	d, err := KSDistance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.1) > 1e-12 {
		t.Errorf("KS = %g, want 0.1", d)
	}
	if _, err := KSDistance(a, []float64{1}); err == nil {
		t.Error("KS over mismatched lengths succeeded")
	}
}

func TestGeoMean(t *testing.T) {
	g, err := GeoMean([]float64{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %g, want 2", g)
	}
	if _, err := GeoMean(nil); err == nil {
		t.Error("GeoMean(nil) succeeded")
	}
	if _, err := GeoMean([]float64{1, -1}); err == nil {
		t.Error("GeoMean with negative succeeded")
	}
	// Property: geomean of identical values is that value.
	f := func(x float64) bool {
		v := 0.5 + math.Abs(x)/(1+math.Abs(x)) // in (0.5, 1.5)
		g, err := GeoMean([]float64{v, v, v})
		return err == nil && math.Abs(g-v) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTopKIndices(t *testing.T) {
	xs := []float64{0.5, 3.0, 1.0, 2.0}
	got := TopKIndices(xs, 2)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("TopKIndices = %v, want [1 3]", got)
	}
	if got := TopKIndices(xs, 10); len(got) != 4 {
		t.Errorf("TopKIndices k>len = %v", got)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("design", "ipc", "note")
	tb.AddRow("SA-4", 1.0, "baseline")
	tb.AddRow("Z4/52", 1.07)
	s := tb.String()
	if !strings.Contains(s, "SA-4") || !strings.Contains(s, "1.070") {
		t.Errorf("table missing cells:\n%s", s)
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), s)
	}
}

func BenchmarkHistogramAdd(b *testing.B) {
	h := NewHistogram(100)
	for i := 0; i < b.N; i++ {
		h.Add(float64(i%1000) / 1000)
	}
}
