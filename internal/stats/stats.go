// Package stats provides the small statistical toolkit shared by the
// experiment harnesses: streaming histograms over [0,1] (for associativity
// distributions), empirical CDFs, geometric means (Fig. 4/5 summaries),
// Kolmogorov–Smirnov distances (to compare measured distributions against
// the uniformity assumption), and plain-text table rendering for the
// figure/table regeneration tools.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram accumulates samples in [0,1] into fixed-width bins. It is the
// backing store for associativity distributions: each eviction contributes
// one sample (the victim's eviction priority).
type Histogram struct {
	bins  []uint64
	total uint64
}

// NewHistogram returns a histogram with the given number of bins. Bins must
// be positive.
func NewHistogram(bins int) *Histogram {
	if bins <= 0 {
		panic(fmt.Sprintf("stats: histogram bins must be positive, got %d", bins))
	}
	return &Histogram{bins: make([]uint64, bins)}
}

// Add records one sample. Samples outside [0,1] are clamped; the
// associativity instrumentation can produce exact 1.0 values which belong in
// the top bin.
func (h *Histogram) Add(x float64) {
	if x < 0 {
		x = 0
	}
	if x > 1 {
		x = 1
	}
	i := int(x * float64(len(h.bins)))
	if i == len(h.bins) {
		i--
	}
	h.bins[i]++
	h.total++
}

// Count returns the number of samples recorded.
func (h *Histogram) Count() uint64 { return h.total }

// Bins returns a copy of the raw bin counts.
func (h *Histogram) Bins() []uint64 {
	out := make([]uint64, len(h.bins))
	copy(out, h.bins)
	return out
}

// CDF returns the empirical cumulative distribution evaluated at the right
// edge of each bin: CDF()[i] = P(X <= (i+1)/bins). Returns nil if empty.
func (h *Histogram) CDF() []float64 {
	if h.total == 0 {
		return nil
	}
	out := make([]float64, len(h.bins))
	var cum uint64
	for i, c := range h.bins {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// UniformityCDF returns F_A(x) = x^n evaluated at the right edge of each of
// bins equal bins — the associativity CDF of a cache that draws n
// independent uniform replacement candidates (paper §IV-B, Fig. 2).
func UniformityCDF(n int, bins int) []float64 {
	out := make([]float64, bins)
	for i := range out {
		x := (float64(i) + 1) / float64(bins)
		out[i] = math.Pow(x, float64(n))
	}
	return out
}

// KSDistance returns the Kolmogorov–Smirnov statistic between two CDFs
// sampled on the same grid: max |a[i]-b[i]|.
func KSDistance(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("stats: KS over CDFs of lengths %d and %d", len(a), len(b))
	}
	var d float64
	for i := range a {
		if diff := math.Abs(a[i] - b[i]); diff > d {
			d = diff
		}
	}
	return d, nil
}

// GeoMean returns the geometric mean of xs. All values must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %g", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}

// TopKIndices returns the indices of the k largest values in xs, in
// descending value order. Used to select the paper's "10 most L2
// miss-intensive workloads" subset.
func TopKIndices(xs []float64, k int) []int {
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] > xs[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
