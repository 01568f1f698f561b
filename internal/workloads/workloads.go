// Package workloads defines the reproduction's 72-workload suite, mirroring
// the paper's §V mix: 6 PARSEC-class multithreaded applications, 10
// SPECOMP-class multithreaded applications, 26 SPECCPU2006-class programs
// run rate-style (one copy per core), and 30 random multiprogrammed
// combinations of the CPU2006-class programs.
//
// Substitution note (DESIGN.md §2): the paper drives its simulator with
// Pin-instrumented reference runs. Here every benchmark is a parameterized
// synthetic generator chosen to land in the behavioural class the paper
// observes for it (§VI-C): low-L1-miss compute kernels, L2-hit-heavy
// working sets, and L2-miss-intensive streams/graphs, plus conflict-prone
// strided kernels. The names carry a "-like" suffix implicitly: they label
// the behavioural stand-in, not the original program.
//
// Footprints are expressed relative to the simulated L2 capacity, so the
// suite scales coherently when tests shrink the machine.
package workloads

import (
	"fmt"
	"sort"

	"zcache/internal/hash"
	"zcache/internal/trace"
)

// Class labels the suite subsets (the paper's Figure 4/5 aggregate over all
// of them; §VI-C discusses per-class behaviour).
type Class int

const (
	// Parsec marks the 6 multithreaded PARSEC-class workloads.
	Parsec Class = iota
	// SpecOMP marks the 10 multithreaded SPECOMP-class workloads.
	SpecOMP
	// CPU2006Rate marks the 26 single-program multiprogrammed workloads
	// (one copy of the same program per core).
	CPU2006Rate
	// Mix marks the 30 random CPU2006-class combinations.
	Mix
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Parsec:
		return "parsec"
	case SpecOMP:
		return "specomp"
	case CPU2006Rate:
		return "cpu2006"
	case Mix:
		return "mix"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// kind is the generator archetype backing a benchmark.
type kind int

const (
	kTiny   kind = iota // working set fits the L1: low L1 miss rate
	kZipf               // skewed working set, footprint relative to L2
	kStream             // streaming scan with a small hot region
	kPtr                // pointer chasing over a large footprint
	kStride             // strided kernel (conflict-prone without hashing)
	kMixed              // zipf + streaming phases
)

// spec is a benchmark's behavioural parameterization.
type spec struct {
	kind kind
	// footFrac is the per-core footprint as a fraction of L2 capacity.
	footFrac float64
	// theta is the zipf skew where applicable.
	theta float64
	// gap is the non-memory instructions between accesses (memory
	// intensity knob).
	gap uint32
	// writeFrac is the store fraction.
	writeFrac float64
	// sharedFrac redirects this fraction of accesses to a region shared
	// by all threads (multithreaded workloads only).
	sharedFrac float64
}

// Workload is one suite entry.
type Workload struct {
	// Name identifies the workload in reports (e.g. "canneal",
	// "cpu2006rand07").
	Name string
	// Class is the suite subset.
	Class Class

	specs []spec // one per core, or one shared spec replicated
}

// parsecSpecs: 6 multithreaded applications. blackscholes/freqmine/
// swaptions are the paper's low-L1-miss examples; canneal and streamcluster
// its miss-intensive ones; fluidanimate sits between (Fig. 3 uses canneal,
// fluidanimate, blackscholes among its six).
var parsecSpecs = map[string]spec{
	"blackscholes":  {kind: kTiny, gap: 6, writeFrac: 0.15},
	"canneal":       {kind: kPtr, footFrac: 2.0, gap: 2, writeFrac: 0.25, sharedFrac: 0.30},
	"fluidanimate":  {kind: kZipf, footFrac: 0.25, theta: 0.65, gap: 3, writeFrac: 0.30, sharedFrac: 0.15},
	"freqmine":      {kind: kTiny, gap: 5, writeFrac: 0.20},
	"streamcluster": {kind: kStream, footFrac: 3.0, gap: 2, writeFrac: 0.10, sharedFrac: 0.10},
	"swaptions":     {kind: kTiny, gap: 6, writeFrac: 0.10},
}

// specOMPSpecs: 10 multithreaded applications (all of SPECOMP minus galgel,
// which the paper could not compile either). wupwise and apsi are the
// paper's Fig. 3 poor-associativity examples (strided/conflict-prone);
// mgrid is its "sensibly worse" one; ammp is L2-hit-heavy.
var specOMPSpecs = map[string]spec{
	"wupwise": {kind: kStride, footFrac: 0.60, gap: 3, writeFrac: 0.20},
	"swim":    {kind: kStream, footFrac: 2.5, gap: 2, writeFrac: 0.25},
	"mgrid":   {kind: kStride, footFrac: 0.80, gap: 3, writeFrac: 0.20},
	"applu":   {kind: kZipf, footFrac: 0.50, theta: 0.50, gap: 3, writeFrac: 0.25},
	"equake":  {kind: kZipf, footFrac: 1.20, theta: 0.70, gap: 2, writeFrac: 0.20, sharedFrac: 0.10},
	"apsi":    {kind: kStride, footFrac: 0.45, gap: 3, writeFrac: 0.25},
	"gafort":  {kind: kZipf, footFrac: 0.30, theta: 0.80, gap: 4, writeFrac: 0.30},
	"fma3d":   {kind: kZipf, footFrac: 0.70, theta: 0.60, gap: 3, writeFrac: 0.25, sharedFrac: 0.05},
	"art":     {kind: kMixed, footFrac: 1.50, theta: 0.55, gap: 2, writeFrac: 0.15},
	"ammp":    {kind: kZipf, footFrac: 0.12, theta: 0.75, gap: 3, writeFrac: 0.25},
}

// cpu2006Specs: 26 programs (all of CPU2006 minus dealII, tonto, wrf, as in
// the paper). gamess is the paper's L2-hit-heavy, latency-sensitive
// example; cactusADM its associativity-sensitive one; mcf/lbm/milc the
// usual memory hogs; libquantum the canonical streamer.
var cpu2006Specs = map[string]spec{
	"perlbench":  {kind: kZipf, footFrac: 0.06, theta: 0.85, gap: 4, writeFrac: 0.25},
	"bzip2":      {kind: kZipf, footFrac: 0.10, theta: 0.60, gap: 3, writeFrac: 0.30},
	"gcc":        {kind: kZipf, footFrac: 0.25, theta: 0.70, gap: 3, writeFrac: 0.25},
	"mcf":        {kind: kPtr, footFrac: 4.0, gap: 1, writeFrac: 0.20},
	"gobmk":      {kind: kZipf, footFrac: 0.08, theta: 0.75, gap: 4, writeFrac: 0.20},
	"hmmer":      {kind: kTiny, gap: 4, writeFrac: 0.25},
	"sjeng":      {kind: kZipf, footFrac: 0.15, theta: 0.65, gap: 4, writeFrac: 0.20},
	"libquantum": {kind: kStream, footFrac: 4.0, gap: 2, writeFrac: 0.25},
	"h264ref":    {kind: kTiny, gap: 5, writeFrac: 0.30},
	"omnetpp":    {kind: kPtr, footFrac: 1.5, gap: 2, writeFrac: 0.30},
	"astar":      {kind: kPtr, footFrac: 0.8, gap: 3, writeFrac: 0.25},
	"xalancbmk":  {kind: kZipf, footFrac: 0.60, theta: 0.75, gap: 3, writeFrac: 0.25},
	"bwaves":     {kind: kStream, footFrac: 3.0, gap: 2, writeFrac: 0.20},
	"gamess":     {kind: kZipf, footFrac: 0.10, theta: 0.70, gap: 3, writeFrac: 0.25},
	"milc":       {kind: kStream, footFrac: 2.5, gap: 2, writeFrac: 0.30},
	"zeusmp":     {kind: kStride, footFrac: 0.70, gap: 3, writeFrac: 0.25},
	"gromacs":    {kind: kZipf, footFrac: 0.08, theta: 0.65, gap: 4, writeFrac: 0.25},
	"cactusADM":  {kind: kStride, footFrac: 1.2, gap: 2, writeFrac: 0.30},
	"leslie3d":   {kind: kStream, footFrac: 2.0, gap: 2, writeFrac: 0.25},
	"namd":       {kind: kTiny, gap: 5, writeFrac: 0.20},
	"soplex":     {kind: kZipf, footFrac: 1.0, theta: 0.60, gap: 2, writeFrac: 0.25},
	"povray":     {kind: kTiny, gap: 5, writeFrac: 0.25},
	"calculix":   {kind: kZipf, footFrac: 0.20, theta: 0.60, gap: 4, writeFrac: 0.25},
	"gemsFDTD":   {kind: kStream, footFrac: 2.2, gap: 2, writeFrac: 0.25},
	"lbm":        {kind: kStream, footFrac: 3.5, gap: 1, writeFrac: 0.40},
	"sphinx3":    {kind: kZipf, footFrac: 0.80, theta: 0.55, gap: 3, writeFrac: 0.15},
}

// cpu2006Names returns the 26 program names in deterministic order.
func cpu2006Names() []string {
	names := make([]string, 0, len(cpu2006Specs))
	for n := range cpu2006Specs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Suite returns the full 72-workload suite in deterministic order.
func Suite() []Workload {
	var out []Workload
	add := func(name string, class Class, specs map[string]spec) {
		out = append(out, Workload{Name: name, Class: class, specs: []spec{specs[name]}})
	}
	for _, n := range sortedKeys(parsecSpecs) {
		add(n, Parsec, parsecSpecs)
	}
	for _, n := range sortedKeys(specOMPSpecs) {
		add(n, SpecOMP, specOMPSpecs)
	}
	names := cpu2006Names()
	for _, n := range names {
		out = append(out, Workload{Name: n, Class: CPU2006Rate, specs: []spec{cpu2006Specs[n]}})
	}
	// 30 random combinations: each core draws one CPU2006-class program,
	// with repetitions allowed (§V).
	rng := uint64(0x2006)
	for i := 0; i < 30; i++ {
		w := Workload{Name: fmt.Sprintf("cpu2006rand%02d", i), Class: Mix}
		for c := 0; c < maxMixCores; c++ {
			rng = hash.Mix64(rng)
			w.specs = append(w.specs, cpu2006Specs[names[rng%uint64(len(names))]])
		}
		out = append(out, w)
	}
	return out
}

// maxMixCores bounds the per-core draw list for mixes; runs with more cores
// cycle through it.
const maxMixCores = 64

func sortedKeys(m map[string]spec) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// ByName finds a workload in the suite.
func ByName(name string) (Workload, bool) {
	for _, w := range Suite() {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Definition is a canonical encoding of everything Generators reads from
// w: its name (which seeds every core's stream), its class and its
// per-core specs. Changing any of them changes the encoding, so a result
// store keyed on it never serves a cell of an older definition.
func (w Workload) Definition() string {
	return fmt.Sprintf("%s %d %v", w.Name, w.Class, w.specs)
}

// Generators builds one access generator per core for this workload.
// l2Bytes anchors the relative footprints; seed makes runs reproducible.
func (w Workload) Generators(cores int, lineBytes, l2Bytes uint64, seed uint64) ([]trace.Generator, error) {
	if cores <= 0 {
		return nil, fmt.Errorf("workloads: cores must be positive, got %d", cores)
	}
	if len(w.specs) == 0 {
		return nil, fmt.Errorf("workloads: %q has no specs", w.Name)
	}
	multithreaded := w.Class == Parsec || w.Class == SpecOMP
	gens := make([]trace.Generator, cores)
	for c := 0; c < cores; c++ {
		sp := w.specs[c%len(w.specs)]
		coreSeed := hash.Mix64(seed ^ uint64(c)*0x5bd1e995 ^ hash.Mix64(uint64(len(w.Name))))
		var base uint64
		if multithreaded {
			// Threads partition one address space; the shared
			// region lives above it.
			base = uint64(c) * footprintBytes(sp, l2Bytes, lineBytes)
		} else {
			base = uint64(c+1) << 40 // disjoint processes
		}
		g, err := buildGenerator(sp, base, lineBytes, l2Bytes, coreSeed)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s core %d: %w", w.Name, c, err)
		}
		if multithreaded && sp.sharedFrac > 0 {
			sharedBytes := l2Bytes / 4
			if sharedBytes < lineBytes*64 {
				sharedBytes = lineBytes * 64
			}
			g, err = trace.NewSharedRegion(g, 1<<50, sharedBytes, lineBytes, sp.sharedFrac, sp.writeFrac, coreSeed^0xabcd)
			if err != nil {
				return nil, fmt.Errorf("workloads: %s core %d shared region: %w", w.Name, c, err)
			}
		}
		gens[c] = g
	}
	return gens, nil
}

// footprintBytes resolves a spec's per-core footprint, line-aligned and at
// least a few lines.
func footprintBytes(sp spec, l2Bytes, lineBytes uint64) uint64 {
	var f uint64
	switch sp.kind {
	case kTiny:
		f = 16 << 10 // fits a 32KB L1 comfortably
	default:
		f = uint64(sp.footFrac * float64(l2Bytes))
	}
	if f < lineBytes*16 {
		f = lineBytes * 16
	}
	return f / lineBytes * lineBytes
}

// buildGenerator constructs the archetype generator for one core.
func buildGenerator(sp spec, base, lineBytes, l2Bytes, seed uint64) (trace.Generator, error) {
	foot := footprintBytes(sp, l2Bytes, lineBytes)
	// Streaming, chasing, and strided archetypes emit one access per
	// *distinct line* touched; real code touches each line several times
	// (word-granularity accesses the L1 absorbs) plus compute. Fold that
	// sub-line locality into the instruction gap so MPKI lands in a
	// realistic band instead of "every instruction misses".
	switch sp.kind {
	case kStream, kPtr, kStride, kMixed:
		sp.gap += 7
	}
	switch sp.kind {
	case kTiny:
		return trace.NewZipf(base, foot, lineBytes, 0.7, sp.gap, sp.writeFrac, seed)
	case kZipf:
		return trace.NewZipf(base, foot, lineBytes, sp.theta, sp.gap, sp.writeFrac, seed)
	case kStream:
		hot := foot / 64
		return trace.NewStream(base, foot, lineBytes, hot, 16, sp.gap, sp.writeFrac, seed)
	case kPtr:
		// Graph traversals also touch hot metadata (node headers, the
		// traversal stack); blend a small zipf region in so the L1/L2
		// see some locality, as real chasing codes do.
		chase, err := trace.NewPointerChase(base, foot, lineBytes, sp.gap, sp.writeFrac, seed)
		if err != nil {
			return nil, err
		}
		hot, err := trace.NewZipf(base, foot/16, lineBytes, 0.9, sp.gap, sp.writeFrac, seed^5)
		if err != nil {
			return nil, err
		}
		return trace.NewMixed("ptr", []trace.Generator{chase, hot}, []float64{0.6, 0.4}, seed^6)
	case kStride:
		// Stride chosen to collide in bit-selected indices: a large
		// power-of-two multiple of the line size.
		stride := lineBytes * 512
		writeEvery := uint64(0)
		if sp.writeFrac > 0 {
			writeEvery = uint64(1.0/sp.writeFrac + 0.5)
		}
		inner, err := trace.NewStrided(base, stride, foot, sp.gap, writeEvery, seed)
		if err != nil {
			return nil, err
		}
		// Blend in a zipf component so the kernel is not purely
		// regular (real strided codes also touch scalars/tables).
		z, err := trace.NewZipf(base, foot/4, lineBytes, 0.7, sp.gap, sp.writeFrac, seed^1)
		if err != nil {
			return nil, err
		}
		return trace.NewMixed("strided", []trace.Generator{inner, z}, []float64{0.7, 0.3}, seed^2)
	case kMixed:
		z, err := trace.NewZipf(base, foot, lineBytes, sp.theta, sp.gap, sp.writeFrac, seed)
		if err != nil {
			return nil, err
		}
		st, err := trace.NewStream(base+foot, foot*2, lineBytes, 0, 0, sp.gap, sp.writeFrac, seed^3)
		if err != nil {
			return nil, err
		}
		return trace.NewMixed("mixed", []trace.Generator{z, st}, []float64{0.6, 0.4}, seed^4)
	default:
		return nil, fmt.Errorf("workloads: unknown kind %d", sp.kind)
	}
}
