package cache

import (
	"testing"

	"zcache/internal/hash"
	"zcache/internal/repl"
)

// refCache is a naive reference model: a map plus the same policy instance
// semantics are NOT replicated (policies differ per array), so the model
// only checks *set membership* invariants that hold for every design:
//
//  1. an access always leaves its line resident;
//  2. a hit is returned iff the controller previously installed the line
//     and has not evicted it (tracked via OnEviction);
//  3. the number of resident lines never exceeds capacity.
func propertyDrive(t *testing.T, name string, c *Cache, capacity int, lineSpace uint64, steps int, seed uint64) {
	t.Helper()
	resident := map[uint64]bool{}
	c.OnEviction = func(addr uint64, dirty bool) {
		line := addr >> 6
		if !resident[line] {
			t.Fatalf("%s: evicted line %#x was not resident", name, line)
		}
		delete(resident, line)
	}
	state := seed | 1
	for i := 0; i < steps; i++ {
		state = hash.Mix64(state)
		line := state % lineSpace
		write := state%7 == 0
		hit := c.Access(line<<6, write)
		if hit != resident[line] {
			t.Fatalf("%s step %d: hit=%v but model resident=%v for line %#x", name, i, hit, resident[line], line)
		}
		resident[line] = true
		if len(resident) > capacity {
			t.Fatalf("%s step %d: %d residents exceed capacity %d", name, i, len(resident), capacity)
		}
		if i%2048 == 0 {
			// Spot-check: a random sample of model-resident lines
			// must be Contains-visible.
			probes := 0
			for l := range resident {
				if !c.Contains(l << 6) {
					t.Fatalf("%s step %d: model-resident line %#x not found", name, i, l)
				}
				if probes++; probes > 16 {
					break
				}
			}
		}
	}
}

// TestAllArraysSatisfyControllerInvariants drives every array organization
// through the same randomized schedule against the membership model.
func TestAllArraysSatisfyControllerInvariants(t *testing.T) {
	const rows, ways = 64, 4
	const capacity = rows * ways
	mk := func(name string, arr Array, err error) (*Cache, string) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pol, err := repl.NewLRU(arr.Blocks())
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(arr, pol, 6)
		if err != nil {
			t.Fatal(err)
		}
		return c, name
	}

	idx, _ := hash.NewBitSelect(0, rows)
	idxH3, _ := hash.NewH3(3, rows)
	fns, _ := hash.H3Family{Seed: 5}.New(ways, rows)
	fns2, _ := hash.H3Family{Seed: 6}.New(ways, rows)
	fns3, _ := hash.H3Family{Seed: 7}.New(ways, rows)

	cases := []func() (*Cache, string){
		func() (*Cache, string) { a, e := NewSetAssoc(ways, rows, idx); return mkRet(mk)(t, "sa-bitsel", a, e) },
		func() (*Cache, string) { a, e := NewSetAssoc(ways, rows, idxH3); return mkRet(mk)(t, "sa-h3", a, e) },
		func() (*Cache, string) { a, e := NewSkew(rows, fns); return mkRet(mk)(t, "skew", a, e) },
		func() (*Cache, string) { a, e := NewZCache(rows, fns2, 3); return mkRet(mk)(t, "zcache", a, e) },
		func() (*Cache, string) {
			a, e := NewZCache(rows, fns3, 3, WithWalkStrategy(WalkDFS))
			if e == nil {
				e = a.SetWalkBudget(16)
			}
			return mkRet(mk)(t, "zcache-dfs", a, e)
		},
		func() (*Cache, string) { a, e := NewFullyAssoc(capacity); return mkRet(mk)(t, "fa", a, e) },
		func() (*Cache, string) {
			a, e := NewRandomCandidates(capacity, 16, 3)
			return mkRet(mk)(t, "randcand", a, e)
		},
	}
	for _, build := range cases {
		c, name := build()
		propertyDrive(t, name, c, capacity, 4096, 40000, 11)
	}
}

// mkRet adapts mk's signature for terse table construction.
func mkRet(mk func(string, Array, error) (*Cache, string)) func(*testing.T, string, Array, error) (*Cache, string) {
	return func(t *testing.T, name string, arr Array, err error) (*Cache, string) {
		return mk(name, arr, err)
	}
}

// TestHybridArrayInvariants runs the same schedule with the hybrid walk on.
func TestHybridArrayInvariants(t *testing.T) {
	fns, _ := hash.H3Family{Seed: 12}.New(4, 64)
	z, err := NewZCache(64, fns, 2)
	if err != nil {
		t.Fatal(err)
	}
	pol, _ := repl.NewLRU(z.Blocks())
	c, _ := New(z, pol, 6)
	if err := c.EnableHybridWalk(2); err != nil {
		t.Fatal(err)
	}
	propertyDrive(t, "zcache-hybrid", c, z.Blocks(), 4096, 40000, 13)
}
