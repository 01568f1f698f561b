package zcache

import (
	"zcache/internal/assoc"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

// Instrumented is a policy wrapper that measures the associativity
// distribution (§IV-A): the eviction priorities of evicted blocks.
type Instrumented = assoc.Instrumented

// Distribution is an associativity CDF, measured or analytical.
type Distribution = assoc.Distribution

// Instrument wraps a policy so the cache built around it records its
// associativity distribution. Typical use:
//
//	pol, _ := zcache.PolicyLRU.New(blocks, seed)
//	m, _ := zcache.Instrument(pol, blocks, 0)
//	c, _ := zcache.NewWithPolicy(cfg, m)
//	... drive c ...
//	d := m.Measured("my-cache")
func Instrument(pol Policy, blocks, bins int) (*Instrumented, error) {
	return assoc.Instrument(pol, blocks, bins)
}

// UniformDistribution returns the analytical associativity CDF under the
// uniformity assumption for n replacement candidates: F_A(x) = xⁿ (§IV-B,
// Fig. 2).
func UniformDistribution(n, bins int) Distribution { return assoc.Uniform(n, bins) }

// KSDistance is the Kolmogorov–Smirnov distance between two distributions
// on the same grid — the quantitative form of §IV-C's "closely matches the
// uniformity assumption".
func KSDistance(a, b Distribution) (float64, error) { return assoc.KS(a, b) }

// Access is one memory reference: a byte address, a store flag, and the
// count of non-memory instructions preceding it.
type Access = trace.Access

// Generator produces a deterministic access stream.
type Generator = trace.Generator

// NoNextUse marks an access whose line is never referenced again.
const NoNextUse = trace.NoNextUse

// AnnotateNextUse computes each access's next-use index in one backwards
// pass — the oracle OPT consumes (§VI-B trace-driven mode).
func AnnotateNextUse(accesses []Access, lineBytes uint64) ([]uint64, error) {
	return trace.AnnotateNextUse(accesses, lineBytes)
}

// SetNextUse forwards the next-use index of the upcoming access to a
// FutureAware (OPT) policy; it is a no-op for other policies.
func SetNextUse(pol Policy, next uint64) {
	if fa, ok := pol.(repl.FutureAware); ok {
		fa.SetNextUse(next)
	}
}

// ConflictReport quantifies the classical conflict-miss proxy for
// associativity (§IV): design misses minus the misses of an equal-capacity
// fully-associative cache under the same policy. The paper criticizes this
// proxy (policy-dependent, workload-dependent, reference-stream-dependent);
// the report exists so those criticisms can be demonstrated quantitatively.
type ConflictReport struct {
	DesignMisses    uint64
	FullAssocMisses uint64
	// ConflictMisses is max(Design - FullAssoc, 0); with anti-LRU access
	// patterns the difference can be negative, which is exactly the
	// §IV failure mode — NegativeGap records it when it happens.
	ConflictMisses uint64
	NegativeGap    uint64
}

// CompareConflictMisses drives accesses through the configured design and
// through an equal-capacity fully-associative cache with the same policy
// kind, returning the conflict-miss decomposition. The reference takes only
// the design's capacity, line size, policy and seed: the design's walk and
// hash settings are the design's own.
func CompareConflictMisses(cfg Config, accesses []Access) (ConflictReport, error) {
	design, err := New(cfg)
	if err != nil {
		return ConflictReport{}, err
	}
	fa, err := New(Config{CapacityBytes: cfg.CapacityBytes, LineBytes: cfg.LineBytes, Ways: 1,
		Design: DesignFullyAssociative, Policy: cfg.Policy, Seed: cfg.Seed})
	if err != nil {
		return ConflictReport{}, err
	}
	for _, a := range accesses {
		design.Access(a.Addr, a.Write)
		fa.Access(a.Addr, a.Write)
	}
	r := ConflictReport{
		DesignMisses:    design.Stats().Misses,
		FullAssocMisses: fa.Stats().Misses,
	}
	if r.DesignMisses >= r.FullAssocMisses {
		r.ConflictMisses = r.DesignMisses - r.FullAssocMisses
	} else {
		r.NegativeGap = r.FullAssocMisses - r.DesignMisses
	}
	return r, nil
}

// Generator constructors, re-exported for building custom workloads.
var (
	// NewZipfGenerator: skewed working-set reuse (theta 0 = uniform).
	NewZipfGenerator = trace.NewZipf
	// NewStridedGenerator: fixed-stride scans (conflict pathologies).
	NewStridedGenerator = trace.NewStrided
	// NewStreamGenerator: long scans with an optional hot region.
	NewStreamGenerator = trace.NewStream
	// NewPointerChaseGenerator: dependent random walks.
	NewPointerChaseGenerator = trace.NewPointerChase
	// NewMixedGenerator: weighted blend of generators.
	NewMixedGenerator = trace.NewMixed
	// NewSharedRegionGenerator: redirects a fraction of accesses to a
	// region shared across threads.
	NewSharedRegionGenerator = trace.NewSharedRegion
	// NewLimitGenerator: truncates a stream after n accesses.
	NewLimitGenerator = trace.NewLimit
	// NewReplayGenerator: replays a recorded access slice.
	NewReplayGenerator = trace.NewReplay
	// CollectAccesses materializes up to n accesses from a generator.
	CollectAccesses = trace.Collect
	// WriteTrace / ReadTrace: binary trace file I/O.
	WriteTrace = trace.WriteTrace
	ReadTrace  = trace.ReadTrace
)
