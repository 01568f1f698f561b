package zkv

import (
	"testing"

	"zcache/internal/sim"
)

// TestShardSpecIsSimBank holds the store to the simulator: at equal geometry
// and seed, shard i's array spec is the simulator's L2 bank i's for both
// zcache designs, so the two build the same index functions and walk.
func TestShardSpecIsSimBank(t *testing.T) {
	for _, c := range []struct {
		design sim.Design
		levels int
	}{{sim.ZCacheL2, 2}, {sim.ZCacheL3, 3}} {
		sc := sim.Config{Design: c.design, L2Bytes: 4 * 4 * 256 * 64, L2Ways: 4, L2Banks: 4,
			LineBytes: 64, Seed: 0xC0FFEE}
		zc := Config{Ways: 4, Rows: 256, Levels: c.levels, Seed: sc.Seed}
		for i := 0; i < sc.L2Banks; i++ {
			if got, want := zc.shardSpec(i), sc.BankSpec(i); got != want {
				t.Errorf("%v shard %d: %+v, simulator bank %+v", c.design, i, got, want)
			}
		}
	}
}
