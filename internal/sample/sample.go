package sample

import (
	"fmt"
	"math"

	"zcache/internal/energy"
	"zcache/internal/repl"
	"zcache/internal/sim"
)

// Spec configures sampled execution. The zero value means "defaults"; the
// normalized spec is what gets folded into cell fingerprints, so two ways
// of spelling the defaults hash identically.
type Spec struct {
	// Intervals is the number of fixed-size intervals the stream is
	// split into (default 32).
	Intervals int
	// Clusters is the k of the signature clustering — also the number of
	// representative legs simulated (default 12).
	Clusters int
}

// Normalized resolves defaults into explicit values.
func (s Spec) Normalized() Spec {
	if s.Intervals <= 0 {
		s.Intervals = 32
	}
	if s.Clusters <= 0 {
		s.Clusters = 12
	}
	if s.Clusters > s.Intervals {
		s.Clusters = s.Intervals
	}
	return s
}

// Plan is the design-independent half of a sampled run: interval
// boundaries, signatures, and cluster structure. It depends only on the
// captured stream, the L2 line capacity, and the spec — not on the design
// or policy — so one plan serves every cell of a workload's row.
type Plan struct {
	Intervals []Interval
	Clusters  []Cluster

	predMiss []float64 // per-interval signature miss-ratio proxy
}

// BuildPlan splits the stream, computes signatures, and clusters them.
func BuildPlan(stream *sim.L2Stream, capacityLines uint64, spec Spec) (*Plan, error) {
	if stream == nil {
		return nil, fmt.Errorf("sample: nil L2 stream")
	}
	spec = spec.Normalized()
	p := &Plan{}
	n := len(stream.Refs)
	if n == 0 {
		return p, nil
	}
	p.Intervals = Split(n, func(i int) uint64 { return stream.Refs[i].Line }, spec.Intervals)
	p.Clusters = Clusters(p.Intervals, spec.Clusters, 1) // a fixed k-means++ seed
	p.predMiss = make([]float64, len(p.Intervals))
	for i, iv := range p.Intervals {
		p.predMiss[i] = iv.Sig.PredictMissRatio(capacityLines)
	}
	return p, nil
}

// Estimate is the sampled run's accuracy report, carried alongside the
// extrapolated metrics (and into the result store for sampled cells).
type Estimate struct {
	// MissRatio is the extrapolated L2 miss ratio; MissRatioErr is the
	// 95% half-width from the stratified cluster variance of the
	// signature miss proxy (see DESIGN.md §13 for the math and caveats).
	MissRatio    float64 `json:"miss_ratio"`
	MissRatioErr float64 `json:"miss_ratio_err"`
	// TotalRefs is the full stream length; SampledRefs counts measured-
	// leg references (warm-up excluded). SkippedHits is always 0: every
	// leg reference is replayed, and the field stays for readers of the
	// serialized estimate.
	TotalRefs   int    `json:"total_refs"`
	SampledRefs int    `json:"sampled_refs"`
	SkippedHits uint64 `json:"skipped_hits"`
	// Intervals and Clusters echo the effective (normalized, clamped)
	// plan shape.
	Intervals int `json:"intervals"`
	Clusters  int `json:"clusters"`
}

// Run simulates the plan's representative legs under cfg and extrapolates
// full-stream metrics. Future-aware policies (OPT) are rejected: a leg
// replay cannot honor next-use annotations computed over a stream it does
// not fully visit.
func Run(cfg sim.Config, stream *sim.L2Stream, plan *Plan) (sim.Metrics, Estimate, error) {
	ms, est, err := RunLookups(cfg, stream, plan, []energy.Lookup{cfg.Lookup})
	if err != nil {
		return sim.Metrics{}, est, err
	}
	return ms[0], est, nil
}

// RunLookups is Run for several lookup-latency variants at once: one shared
// walk over the representative legs serves every requested lookup, because
// serial vs parallel lookup changes only the charged bank hit latency,
// never which accesses hit (sim.L2Replayer timing variants). The returned
// metrics are in lookups order; misses, writebacks, and the accuracy
// estimate are identical across variants, only cycle-derived figures
// differ. This is what lets a sampled suite amortize the walk across the
// Fig. 5 lookup axis — each exact execution-driven cell must re-simulate.
func RunLookups(cfg sim.Config, stream *sim.L2Stream, plan *Plan, lookups []energy.Lookup) ([]sim.Metrics, Estimate, error) {
	if cfg.L2Policy == repl.KindOPT {
		return nil, Estimate{}, fmt.Errorf("sample: OPT requires the full stream; run it exact")
	}
	if stream == nil || plan == nil {
		return nil, Estimate{}, fmt.Errorf("sample: nil stream or plan")
	}
	if len(lookups) == 0 {
		return nil, Estimate{}, fmt.Errorf("sample: no lookup variants requested")
	}
	est := Estimate{TotalRefs: len(stream.Refs),
		Intervals: len(plan.Intervals), Clusters: len(plan.Clusters)}
	if len(stream.Refs) == 0 {
		// L1-resident workload: the exact empty-stream path is already
		// O(1) and lookup-independent; sampled mode degenerates to it.
		ms := make([]sim.Metrics, len(lookups))
		for i := range ms {
			var err error
			if ms[i], err = sim.ReplayL2(cfg, stream); err != nil {
				return nil, est, err
			}
		}
		return ms, est, nil
	}

	refs := stream.Refs
	var (
		wAcc, wHits, wMiss, wWB, wReloc, wWalkTR float64
		wDemand, wTagLookups                     float64
		wStalls                                  = make([][]float64, len(lookups))
	)
	for v := range wStalls {
		wStalls[v] = make([]float64, cfg.Cores)
	}
	harvest := func(x *sim.L2Replayer, cl Cluster) {
		lc := x.Leg()
		est.SampledRefs += plan.Intervals[cl.Rep].Len()
		w := cl.Weight
		wAcc += w * float64(lc.Counts.L2Accesses)
		wHits += w * float64(lc.Counts.L2Hits)
		wMiss += w * float64(lc.Counts.L2Misses)
		wWB += w * float64(lc.Counts.Writebacks)
		wReloc += w * float64(lc.Counts.L2Relocations)
		wWalkTR += w * float64(lc.Counts.L2WalkTagReads)
		wDemand += w * float64(lc.Demand)
		wTagLookups += w * float64(lc.TagLookups)
		for v := range wStalls {
			for c := range wStalls[v] {
				wStalls[v][c] += w * float64(lc.VariantStalls[v][c])
			}
		}
	}

	// One replayer advances through the stream: cache state carries over
	// from leg to leg and every gap reference is functionally warmed, so
	// each leg starts from exactly the state full replay would have and
	// sampling pays only extrapolation error (TestLegIdentity). Counters
	// are reset at each representative's start and harvested at its end;
	// the walk stops after the last representative (the suffix never
	// influences earlier intervals).
	cfg.Lookup = lookups[0]
	x, err := sim.NewL2Replayer(cfg)
	if err != nil {
		return nil, Estimate{}, err
	}
	for _, lk := range lookups[1:] {
		x.AddLookupTiming(lk)
	}
	pos := 0
	for _, cl := range plan.Clusters {
		iv := plan.Intervals[cl.Rep]
		for i := pos; i < iv.Start; i++ {
			x.Warm(refs[i])
		}
		x.ResetCounters()
		for i := iv.Start; i < iv.End; i++ {
			x.Replay(refs[i], 0)
		}
		harvest(x, cl)
		pos = iv.End
	}

	// Activity counts are lookup-invariant; cycle-derived figures (IPC,
	// bank loads) are assembled per variant from its own stall totals.
	var counts energy.SystemCounts
	counts.L2Accesses = round(wAcc)
	counts.L2Misses = round(wMiss)
	if counts.L2Misses > counts.L2Accesses {
		counts.L2Misses = counts.L2Accesses
	}
	// Keep the hit/miss and DRAM identities exact after rounding.
	counts.L2Hits = counts.L2Accesses - counts.L2Misses
	counts.Writebacks = round(wWB)
	counts.DRAMAccesses = counts.L2Misses + counts.Writebacks
	counts.L2Relocations = round(wReloc)
	counts.L2WalkTagReads = round(wWalkTR)

	ms := make([]sim.Metrics, len(lookups))
	stalls := make([]uint64, cfg.Cores)
	for v := range lookups {
		for c := range stalls {
			stalls[c] = round(wStalls[v][c])
		}
		ms[v] = sim.StreamMetrics(cfg, stream, counts, stalls, wDemand, wTagLookups)
	}

	if wAcc > 0 {
		est.MissRatio = wMiss / wAcc
	}
	est.MissRatioErr = plan.missErr95()
	return ms, est, nil
}

// missErr95 is the stratified 95% half-width on the miss ratio: with one
// sampled interval per cluster, Var(total misses) ~ sum over clusters of
// m_j^2 * sigma_j^2, where sigma_j^2 is the within-cluster variance of the
// per-interval predicted miss counts (the signature proxy standing in for
// the unsimulated members' true counts).
func (p *Plan) missErr95() float64 {
	var totalRefs float64
	for _, iv := range p.Intervals {
		totalRefs += float64(iv.Len())
	}
	if totalRefs == 0 {
		return 0
	}
	var variance float64
	for _, cl := range p.Clusters {
		if len(cl.Members) < 2 {
			continue
		}
		var mean float64
		for _, i := range cl.Members {
			mean += p.predMiss[i] * float64(p.Intervals[i].Len())
		}
		mean /= float64(len(cl.Members))
		var s2 float64
		for _, i := range cl.Members {
			d := p.predMiss[i]*float64(p.Intervals[i].Len()) - mean
			s2 += d * d
		}
		s2 /= float64(len(cl.Members) - 1)
		variance += float64(len(cl.Members)) * float64(len(cl.Members)) * s2
	}
	return 1.96 * math.Sqrt(variance) / totalRefs
}

func round(v float64) uint64 {
	if v <= 0 {
		return 0
	}
	return uint64(v + 0.5)
}
