package zkv_test

import (
	"testing"

	"zcache/internal/repl"
	"zcache/internal/zcluster"
	"zcache/internal/zkv"
)

// TestEquivalence is the headline claim of the live layer: replaying a
// workload preset through a zkv store and through the simulator's cache
// construction yields bit-identical eviction victim sequences and equal
// hit/miss counts. Three presets, both policies. The replay is the cluster's
// (there is only one); a one-node ring is the single-store case.
func TestEquivalence(t *testing.T) {
	workloadNames := []string{"canneal", "libquantum", "mcf"}
	for _, pol := range []repl.Kind{repl.KindBucketedLRU, repl.KindLRU} {
		for _, name := range workloadNames {
			t.Run(name+"/"+pol.String(), func(t *testing.T) {
				cfg := zkv.Config{Ways: 4, Rows: 256, Levels: 2, Policy: pol, Seed: 1234}
				rep, err := zcluster.ReplayEquivByName(name, cfg, 1, 0, 50000)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Match {
					t.Fatalf("divergence: %s", rep.Detail)
				}
				if rep.Accesses != 50000 {
					t.Fatalf("replayed %d accesses, want 50000", rep.Accesses)
				}
				n := rep.PerNode[0]
				if n.Victims == 0 {
					t.Fatal("no victims recorded; equivalence check is vacuous")
				}
				t.Logf("%s/%s: %d accesses, %d hits, %d misses, %d identical victims",
					name, pol, rep.Accesses, n.Hits, n.Misses, n.Victims)
			})
		}
	}
}

func TestEquivUnknownWorkload(t *testing.T) {
	if _, err := zcluster.ReplayEquivByName("no-such-workload", zkv.Config{}, 1, 0, 10); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
