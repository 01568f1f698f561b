// Package assoc implements the paper's analytical framework for
// associativity (§IV). Associativity is defined as the probability
// distribution of the *eviction priorities* of evicted blocks: each evicted
// block's global rank under the replacement policy, normalized to [0,1]
// (1.0 = the block the policy most wanted gone, as a fully-associative
// cache would always evict).
//
// The framework decouples the cache array from the policy: the same
// instrumentation measures a set-associative cache, a skew cache, a zcache,
// or the random-candidates thought experiment, under any repl.Policy.
//
// Implementation: Instrument wraps a repl.Policy, mirroring every resident
// block's retention key in an order-statistics treap: the policy's own
// RetentionKey when it is a repl.Ranker, otherwise — the LRU family — the
// sequence number of the block's last touch, counted here, since touch order
// is that family's global order. At eviction time the victim's global rank
// costs O(log B) instead of the naive O(B) scan, making full-length
// instrumented simulations practical.
package assoc

import (
	"fmt"

	"zcache/internal/order"
	"zcache/internal/repl"
	"zcache/internal/stats"
)

// DefaultBins is the histogram resolution used by the experiments; 100 bins
// resolve the 0.01-granularity features visible in the paper's Fig. 3.
const DefaultBins = 100

// Instrumented wraps a policy and records the associativity distribution of
// the cache it drives.
type Instrumented struct {
	inner repl.Policy
	// ranker is inner's own global order; nil for a touch-order policy,
	// whose key is the touches count at the block's last insert or access.
	ranker  repl.Ranker
	touches uint64
	tree    order.Treap
	keys    []uint64
	live    []bool
	hist    *stats.Histogram
	// skipped counts evictions that could not be measured because of a
	// retention-key anomaly (duplicate keys); always 0 for the policies
	// in repl, but tracked so silent measurement gaps cannot happen.
	skipped uint64
}

// Instrument wraps policy for a cache with numBlocks slots, recording
// eviction priorities into a histogram with bins bins.
func Instrument(policy repl.Policy, numBlocks, bins int) (*Instrumented, error) {
	if policy == nil {
		return nil, fmt.Errorf("assoc: nil policy")
	}
	if numBlocks <= 0 {
		return nil, fmt.Errorf("assoc: block count must be positive, got %d", numBlocks)
	}
	if bins <= 0 {
		bins = DefaultBins
	}
	ranker, _ := policy.(repl.Ranker)
	return &Instrumented{
		inner:  policy,
		ranker: ranker,
		keys:   make([]uint64, numBlocks),
		live:   make([]bool, numBlocks),
		hist:   stats.NewHistogram(bins),
	}, nil
}

// Name identifies the wrapped policy.
func (m *Instrumented) Name() string { return m.inner.Name() }

// Histogram returns the recorded associativity distribution.
func (m *Instrumented) Histogram() *stats.Histogram { return m.hist }

// Skipped returns the number of unmeasurable evictions (0 in correct use).
func (m *Instrumented) Skipped() uint64 { return m.skipped }

// track inserts/refreshes id's key in the treap after an insert or access.
func (m *Instrumented) track(id repl.BlockID) {
	var k uint64
	if m.ranker != nil {
		k = m.ranker.RetentionKey(id)
	} else {
		m.touches++
		k = m.touches
	}
	if err := m.tree.Insert(k); err != nil {
		// Duplicate retention key: measurement for this block is
		// impossible, but the simulation must not die. Mark the slot
		// untracked.
		m.live[id] = false
		m.skipped++
		return
	}
	m.keys[id] = k
	m.live[id] = true
}

// untrack removes id's key from the treap.
func (m *Instrumented) untrack(id repl.BlockID) {
	if !m.live[id] {
		return
	}
	if err := m.tree.Delete(m.keys[id]); err != nil {
		panic(fmt.Sprintf("assoc: treap out of sync: %v", err))
	}
	m.live[id] = false
}

// OnInsert forwards and begins tracking the block.
func (m *Instrumented) OnInsert(id repl.BlockID, addr uint64) {
	m.inner.OnInsert(id, addr)
	m.track(id)
}

// OnAccess forwards and refreshes the block's key (accesses change recency/
// frequency/next-use, and therefore the global ordering).
func (m *Instrumented) OnAccess(id repl.BlockID, write bool) {
	m.untrack(id)
	m.inner.OnAccess(id, write)
	m.track(id)
}

// OnEvict measures the victim's eviction priority, then forwards.
//
// Eviction priority (§IV-A): with B resident blocks ranked by eviction
// preference (rank B-1 = the block the policy most wants to evict), the
// victim's priority is rank/(B-1). A victim with the globally smallest
// retention key gets e = 1.0.
func (m *Instrumented) OnEvict(id repl.BlockID) {
	if m.live[id] {
		total := m.tree.Len()
		if total > 1 {
			below := m.tree.Rank(m.keys[id]) // blocks MORE evictable than victim
			rank := total - 1 - below        // eviction-preference rank
			m.hist.Add(float64(rank) / float64(total-1))
		} else if total == 1 {
			m.hist.Add(1.0)
		}
		m.untrack(id)
	} else {
		m.skipped++
	}
	m.inner.OnEvict(id)
}

// OnMoves forwards the relocation chain and re-keys the tracking hop by hop,
// from each source to its destination slot.
func (m *Instrumented) OnMoves(moves []repl.Move) {
	m.inner.OnMoves(moves)
	for _, mv := range moves {
		if m.live[mv.From] {
			m.keys[mv.To], m.live[mv.To] = m.keys[mv.From], true
			m.live[mv.From] = false
		} else {
			m.live[mv.To] = false
		}
	}
}

// Select forwards victim selection untouched: instrumentation must never
// change the decisions being measured.
func (m *Instrumented) Select(cands []repl.BlockID) int { return m.inner.Select(cands) }

// SetNextUse forwards trace-driven future information when the wrapped
// policy is FutureAware.
func (m *Instrumented) SetNextUse(next uint64) {
	if fa, ok := m.inner.(repl.FutureAware); ok {
		fa.SetNextUse(next)
	}
}

// Distribution is a measured or analytical associativity CDF on a uniform
// grid over (0,1].
type Distribution struct {
	// Label names the design/workload the distribution belongs to.
	Label string
	// CDF[i] = P(eviction priority <= (i+1)/len(CDF)).
	CDF []float64
	// Samples is the eviction count behind a measured distribution
	// (0 for analytical curves).
	Samples uint64
}

// Measured extracts the distribution recorded by an Instrumented policy.
func (m *Instrumented) Measured(label string) Distribution {
	return Distribution{Label: label, CDF: m.hist.CDF(), Samples: m.hist.Count()}
}

// Uniform returns the analytical distribution under the uniformity
// assumption for n replacement candidates: F_A(x) = x^n (§IV-B, Fig. 2).
func Uniform(n, bins int) Distribution {
	if bins <= 0 {
		bins = DefaultBins
	}
	return Distribution{
		Label: fmt.Sprintf("uniform-n%d", n),
		CDF:   stats.UniformityCDF(n, bins),
	}
}

// KS returns the Kolmogorov–Smirnov distance between two distributions on
// the same grid — the repository's quantitative stand-in for "closely
// matches the uniformity assumption" (§IV-C).
func KS(a, b Distribution) (float64, error) {
	if a.CDF == nil || b.CDF == nil {
		return 0, fmt.Errorf("assoc: KS over empty distribution (%q vs %q)", a.Label, b.Label)
	}
	return stats.KSDistance(a.CDF, b.CDF)
}
