package workloads

import (
	"reflect"
	"testing"
)

func TestSuiteComposition(t *testing.T) {
	suite := Suite()
	if len(suite) != 72 {
		t.Fatalf("suite has %d workloads, want 72 (§V)", len(suite))
	}
	counts := map[Class]int{}
	names := map[string]bool{}
	for _, w := range suite {
		counts[w.Class]++
		if names[w.Name] {
			t.Errorf("duplicate workload name %q", w.Name)
		}
		names[w.Name] = true
	}
	want := map[Class]int{Parsec: 6, SpecOMP: 10, CPU2006Rate: 26, Mix: 30}
	for cl, n := range want {
		if counts[cl] != n {
			t.Errorf("%v workloads = %d, want %d", cl, counts[cl], n)
		}
	}
}

func TestSuiteIsDeterministic(t *testing.T) {
	a, b := Suite(), Suite()
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Class != b[i].Class {
			t.Fatalf("suite order unstable at %d: %q vs %q", i, a[i].Name, b[i].Name)
		}
	}
}

func TestPaperNamedWorkloadsPresent(t *testing.T) {
	// The benchmarks the paper calls out in Figs. 3/5 and §VI-C.
	for _, name := range []string{
		"blackscholes", "canneal", "fluidanimate", "freqmine", "streamcluster",
		"wupwise", "apsi", "mgrid", "ammp",
		"gamess", "cactusADM", "mcf", "libquantum",
		"cpu2006rand00", "cpu2006rand29",
	} {
		if _, ok := ByName(name); !ok {
			t.Errorf("workload %q missing from suite", name)
		}
	}
	if _, ok := ByName("no-such-benchmark"); ok {
		t.Error("ByName invented a workload")
	}
}

func TestGeneratorsProduceValidStreams(t *testing.T) {
	const cores = 4
	const l2 = 1 << 20
	for _, w := range Suite() {
		gens, err := w.Generators(cores, 64, l2, 99)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(gens) != cores {
			t.Fatalf("%s: %d generators, want %d", w.Name, len(gens), cores)
		}
		for c, g := range gens {
			for i := 0; i < 100; i++ {
				a, ok := g.Next()
				if !ok {
					t.Fatalf("%s core %d: stream ended", w.Name, c)
				}
				_ = a
			}
		}
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	w, _ := ByName("canneal")
	g1, err := w.Generators(2, 64, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := w.Generators(2, 64, 1<<20, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		a1, _ := g1[0].Next()
		a2, _ := g2[0].Next()
		if a1 != a2 {
			t.Fatalf("access %d differs across identical seeds: %+v vs %+v", i, a1, a2)
		}
	}
	g3, err := w.Generators(2, 64, 1<<20, 8)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	g1[1].Reset()
	for i := 0; i < 500; i++ {
		a1, _ := g1[1].Next()
		a3, _ := g3[1].Next()
		if a1 == a3 {
			same++
		}
	}
	if same == 500 {
		t.Error("different seeds produced identical streams")
	}
}

func TestRateWorkloadsUseDisjointAddressSpaces(t *testing.T) {
	w, _ := ByName("mcf")
	gens, err := w.Generators(4, 64, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for c, g := range gens {
		lo, hi := uint64(c+1)<<40, uint64(c+2)<<40
		for i := 0; i < 1000; i++ {
			a, _ := g.Next()
			if a.Addr < lo || a.Addr >= hi {
				t.Fatalf("core %d touched %#x outside its process space [%#x,%#x)", c, a.Addr, lo, hi)
			}
		}
	}
}

func TestMultithreadedWorkloadsShareAddresses(t *testing.T) {
	w, _ := ByName("canneal")
	gens, err := w.Generators(4, 64, 1<<20, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]map[uint64]bool, len(gens))
	for c, g := range gens {
		seen[c] = map[uint64]bool{}
		for i := 0; i < 5000; i++ {
			a, _ := g.Next()
			seen[c][a.Addr>>6] = true
		}
	}
	common := 0
	for line := range seen[0] {
		if seen[1][line] || seen[2][line] {
			common++
		}
	}
	if common == 0 {
		t.Error("multithreaded workload shows no line sharing between threads")
	}
}

func TestWorkloadClassesBehaveDifferently(t *testing.T) {
	// The three §VI-C classes must be distinguishable by raw footprint:
	// tiny workloads reuse few lines; streaming ones touch many.
	uniqueLines := func(name string) int {
		w, ok := ByName(name)
		if !ok {
			t.Fatalf("missing %s", name)
		}
		gens, err := w.Generators(1, 64, 1<<20, 5)
		if err != nil {
			t.Fatal(err)
		}
		lines := map[uint64]bool{}
		for i := 0; i < 20000; i++ {
			a, _ := gens[0].Next()
			lines[a.Addr>>6] = true
		}
		return len(lines)
	}
	tiny := uniqueLines("blackscholes")
	stream := uniqueLines("libquantum")
	if tiny*10 > stream {
		t.Errorf("blackscholes footprint %d not ≪ libquantum footprint %d", tiny, stream)
	}
}

func TestGeneratorsRejectBadArgs(t *testing.T) {
	w, _ := ByName("gcc")
	if _, err := w.Generators(0, 64, 1<<20, 1); err == nil {
		t.Error("0 cores accepted")
	}
	var empty Workload
	if _, err := empty.Generators(1, 64, 1<<20, 1); err == nil {
		t.Error("empty workload accepted")
	}
}

func TestMixWorkloadsVary(t *testing.T) {
	// Two different mixes should assign different programs to at least
	// one core (probability of full collision is negligible).
	a, _ := ByName("cpu2006rand00")
	b, _ := ByName("cpu2006rand01")
	ga, _ := a.Generators(8, 64, 1<<20, 5)
	gb, _ := b.Generators(8, 64, 1<<20, 5)
	diff := false
	for c := 0; c < 8 && !diff; c++ {
		for i := 0; i < 50; i++ {
			x, _ := ga[c].Next()
			y, _ := gb[c].Next()
			if x.Addr != y.Addr {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Error("mixes rand00 and rand01 are identical")
	}
}

func BenchmarkSuiteGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if got := len(Suite()); got != 72 {
			b.Fatal(got)
		}
	}
}

// TestDefinitionCoversEverySpecField: perturbing any spec field, on any
// core, or the name or class changes a workload's definition encoding, so
// a result store keyed on it cannot serve a cell of the old definition.
// Every field of spec must have a perturbation here.
func TestDefinitionCoversEverySpecField(t *testing.T) {
	perturbations := map[string]func(*spec){
		"kind":       func(s *spec) { s.kind++ },
		"footFrac":   func(s *spec) { s.footFrac += 1e-9 },
		"theta":      func(s *spec) { s.theta += 1e-9 },
		"gap":        func(s *spec) { s.gap++ },
		"writeFrac":  func(s *spec) { s.writeFrac += 1e-9 },
		"sharedFrac": func(s *spec) { s.sharedFrac += 1e-9 },
	}
	typ := reflect.TypeOf(spec{})
	for i := 0; i < typ.NumField(); i++ {
		if perturbations[typ.Field(i).Name] == nil {
			t.Errorf("spec.%s has no perturbation", typ.Field(i).Name)
		}
	}
	mix, ok := ByName("cpu2006rand07")
	if !ok {
		t.Fatal("no cpu2006rand07")
	}
	base := mix.Definition()
	for name, perturb := range perturbations {
		for _, core := range []int{0, len(mix.specs) - 1} {
			w := mix
			w.specs = append([]spec(nil), mix.specs...)
			perturb(&w.specs[core])
			if w.Definition() == base {
				t.Errorf("perturbing core %d's %s leaves the definition unchanged", core, name)
			}
		}
	}
	for what, w := range map[string]Workload{
		"name":  {Name: mix.Name + "'", Class: mix.Class, specs: mix.specs},
		"class": {Name: mix.Name, Class: mix.Class - 1, specs: mix.specs},
		"cores": {Name: mix.Name, Class: mix.Class, specs: mix.specs[1:]},
	} {
		if w.Definition() == base {
			t.Errorf("changing the %s leaves the definition unchanged", what)
		}
	}
}
