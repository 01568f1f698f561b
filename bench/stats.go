package main

import (
	"sort"
	"time"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile reads quantile p off v by nearest rank.
func quantile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)]
}

// quietQuantile is the quantile of a phase's slices that ops_per_s reports.
// The host's other tenants only ever slow a slice down, and for tens of
// seconds at a time, so the tenth-best slice in a hundred (the program on a
// nearly quiet host) repeats better from run to run than the median does:
// over four sets of ten seeds it had the smaller spread in 26 of 28
// workload × set pairs (README.md, "What this host allows").
const quietQuantile = 0.9

func (ph phase) opsPerSecond() float64 { return quantile(ph.opsPerS, quietQuantile) }

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}

// tailPercentiles are the candidates for "the highest percentile with at
// least ten samples beyond it", highest first.
var tailPercentiles = []float64{0.999, 0.99, 0.9, 0.5}

// tailPercentile returns the highest candidate no greater than want that
// still has ten samples beyond it in a sample of n, and 0.5 when none has:
// a p99 read off fewer than a thousand samples is set by a handful of them.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailPercentiles {
		if p <= want && n-1-rankOf(n, p) >= 10 {
			return p
		}
	}
	return 0.5
}

func sortU32(s []uint32) { sort.Slice(s, func(a, b int) bool { return s[a] < s[b] }) }

// rankOf is the index of quantile p in an ascending sample of n (nearest
// rank).
func rankOf(n int, p float64) int { return min(int(p*float64(n)), n-1) }

// percentile reads quantile p off an ascending slice.
func percentile(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return float64(sorted[rankOf(len(sorted), p)])
}

// sliceRec is what one load thread completed inside one fixed-length slice
// of the timed phase. Latencies are kept exactly (nanoseconds) and reduced
// after the phase ends, so that reducing them costs the threads nothing.
type sliceRec struct {
	ops, gets, hits int64
	lat             []uint32
}

// phase is a timed phase reduced to per-slice figures. A phase is cut into
// slices so that every reported figure is a median over slices: one late
// wake-up of a load thread then spoils one slice and not the run.
type phase struct {
	opsPerS       []float64 // per complete slice
	p50, p99      []float64 // ns, per complete slice
	p999          []float64
	tailUsed      float64 // the percentile op_p99 really is, given n
	latPerSlice   int     // median sample count behind each percentile
	ops           int64   // inside complete slices
	done          int64   // between the process snapshots: ops plus the tail past the last slice
	gets, hits    int64
	sets          int64
	attempted     int64
	failed        int64
	cpuUser       time.Duration
	cpuSys        time.Duration
	ctxSwitches   int64
	gcPause       time.Duration
	completeSlice int
}

// reducePhase merges the threads' slices. Only slices that lie wholly inside
// the timed interval count; work finished after the deadline is checked for
// correctness but not measured.
func reducePhase(threads [][]sliceRec, sliceDur time.Duration, complete int) phase {
	ph := phase{completeSlice: complete}
	var counts []float64
	for i := 0; i < complete; i++ {
		var ops int64
		var lat []uint32
		for _, t := range threads {
			if i >= len(t) {
				continue
			}
			ops += t[i].ops
			ph.gets += t[i].gets
			ph.hits += t[i].hits
			lat = append(lat, t[i].lat...)
		}
		ph.ops += ops
		ph.opsPerS = append(ph.opsPerS, float64(ops)/sliceDur.Seconds())
		if len(lat) == 0 {
			continue
		}
		sortU32(lat)
		ph.tailUsed = tailPercentile(len(lat), 0.99)
		ph.p50 = append(ph.p50, percentile(lat, 0.5))
		ph.p99 = append(ph.p99, percentile(lat, ph.tailUsed))
		ph.p999 = append(ph.p999, percentile(lat, tailPercentile(len(lat), 0.999)))
		counts = append(counts, float64(len(lat)))
	}
	ph.latPerSlice = int(median(counts))
	return ph
}

func (ph phase) hitRate() float64 {
	if ph.gets == 0 {
		return 0
	}
	return float64(ph.hits) / float64(ph.gets)
}
