// Batch determinism: for every generator, NextBatch must replay the exact
// access stream that repeated Next() calls yield — same values, same length,
// regardless of how the consumer sizes or interleaves its batch buffers.
package trace

import (
	"math"
	"testing"
)

// batchCases constructs two independent, identically-parameterized instances
// of every generator in the package (finite and infinite).
func batchCases(t *testing.T) map[string]func() Generator {
	t.Helper()
	mk := map[string]func() Generator{
		"strided": func() Generator {
			g, err := NewStrided(0, 64, 1<<20, 2, 7, 3)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"zipf": func() Generator {
			g, err := NewZipf(0, 1<<20, 64, 0.8, 1, 0.3, 42)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"pointer-chase": func() Generator {
			g, err := NewPointerChase(1<<12, 1<<18, 64, 3, 0.1, 17)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"stream": func() Generator {
			g, err := NewStream(0, 1<<20, 64, 1<<12, 5, 2, 0.2, 23)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"mixed": func() Generator {
			z, err := NewZipf(0, 1<<18, 64, 0.7, 0, 0.25, 5)
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewStrided(1<<24, 64, 1<<16, 1, 0, 9)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewMixed("mix", []Generator{z, s}, []float64{2, 1}, 31)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"shared-region": func() Generator {
			z, err := NewZipf(1<<22, 1<<18, 64, 0.9, 0, 0.2, 13)
			if err != nil {
				t.Fatal(err)
			}
			g, err := NewSharedRegion(z, 0, 1<<16, 64, 0.3, 0.4, 77)
			if err != nil {
				t.Fatal(err)
			}
			return g
		},
		"limit": func() Generator {
			z, err := NewZipf(0, 1<<18, 64, 0.8, 0, 0.25, 8)
			if err != nil {
				t.Fatal(err)
			}
			return NewLimit(z, 5000) // shorter than the drive target
		},
		"replay": func() Generator {
			accs := make([]Access, 777)
			for i := range accs {
				accs[i] = Access{Addr: uint64(i) * 64, Gap: uint32(i % 5), Write: i%3 == 0}
			}
			return NewReplay("rp", accs)
		},
	}
	return mk
}

// drainNext collects up to n accesses one Next() call at a time.
func drainNext(g Generator, n int) []Access {
	out := make([]Access, 0, n)
	for len(out) < n {
		a, ok := g.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	return out
}

// drainBatch collects up to n accesses through FillBatch with deliberately
// awkward, varying buffer sizes.
func drainBatch(g Generator, n int) []Access {
	out := make([]Access, 0, n)
	sizes := []int{1, 3, 17, 64, 5, 256, 2}
	buf := make([]Access, 256)
	for i := 0; len(out) < n; i++ {
		want := sizes[i%len(sizes)]
		if rem := n - len(out); want > rem {
			want = rem
		}
		got := FillBatch(g, buf[:want])
		out = append(out, buf[:got]...)
		if got == 0 {
			break
		}
	}
	return out
}

// TestNextBatchMatchesNext checks byte-identical streams through both drive
// paths for every generator.
func TestNextBatchMatchesNext(t *testing.T) {
	const n = 20000
	for name, mk := range batchCases(t) {
		t.Run(name, func(t *testing.T) {
			ref := drainNext(mk(), n)
			got := drainBatch(mk(), n)
			if len(ref) != len(got) {
				t.Fatalf("stream lengths diverge: Next yields %d, NextBatch yields %d", len(ref), len(got))
			}
			for i := range ref {
				if ref[i] != got[i] {
					t.Fatalf("access %d diverges: Next %+v, NextBatch %+v", i, ref[i], got[i])
				}
			}
		})
	}
}

// TestZipfIndexedSearchMatchesFull sweeps draws densely — including exact
// bucket boundaries and values just below them — and requires the
// bucket-narrowed CDF search to land on the same cell as an unindexed
// lower bound, for several skews.
func TestZipfIndexedSearchMatchesFull(t *testing.T) {
	for _, theta := range []float64{0, 0.8, 1, 1.2} {
		g, err := NewZipf(0, 1<<22, 64, theta, 0, 0.3, 7)
		if err != nil {
			t.Fatal(err)
		}
		buckets := len(g.cellBound) - 1
		check := func(u float64) {
			if got, want := g.cell(u), lowerBound(g.cdf, u); got != want {
				t.Fatalf("theta=%g u=%v: narrowed search picks cell %d, full search %d", theta, u, got, want)
			}
		}
		const sweep = 100_000
		for i := 0; i < sweep; i++ {
			check(float64(i) / sweep)
		}
		for b := 0; b < buckets; b++ {
			edge := float64(b) / float64(buckets)
			check(edge)
			if below := math.Nextafter(edge, 0); below >= 0 {
				check(below)
			}
		}
		check(math.Nextafter(1, 0))
	}
}

// TestNextBatchImplemented pins every shipped generator to the fast
// BatchGenerator path, so a new generator that forgets NextBatch (silently
// falling back to the per-call adapter) fails here.
func TestNextBatchImplemented(t *testing.T) {
	for name, mk := range batchCases(t) {
		if _, ok := mk().(BatchGenerator); !ok {
			t.Errorf("%s does not implement BatchGenerator", name)
		}
	}
}
