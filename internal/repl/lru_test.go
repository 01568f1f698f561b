package repl

import (
	"math"
	"math/rand"
	"testing"
)

// refLRU is full LRU on an unbounded (64-bit) counter, the order LRU's
// 32-bit stamps must reproduce across renumberings.
type refLRU struct {
	counter uint64
	ts      []uint64
}

func (r *refLRU) touch(id BlockID) {
	r.counter++
	r.ts[id] = r.counter
}

func (r *refLRU) selectVictim(cands []BlockID) int {
	best := 0
	for i, id := range cands {
		if r.ts[id] < r.ts[cands[best]] {
			best = i
		}
	}
	return best
}

// TestLRURenumberKeepsOrder starts an LRU a few thousand touches below the
// 32-bit counter's wrap and drives a seeded mix of inserts, hits, evictions,
// relocation chains and victim selections through several renumberings,
// against refLRU. Every Select must pick what refLRU picks. After each
// renumbering the counter is raised back near the wrap, which keeps the
// order: the counter stays above every live stamp.
func TestLRURenumberKeepsOrder(t *testing.T) {
	const (
		blocks   = 64
		headroom = 3000
	)
	p, err := NewLRU(blocks)
	if err != nil {
		t.Fatal(err)
	}
	p.counter = math.MaxUint32 - headroom
	ref := &refLRU{ts: make([]uint64, blocks)}
	rng := rand.New(rand.NewSource(1))

	var resident, free []BlockID
	for id := BlockID(0); id < blocks; id++ {
		free = append(free, id)
	}
	take := func(s *[]BlockID) BlockID {
		i := rng.Intn(len(*s))
		id := (*s)[i]
		(*s)[i] = (*s)[len(*s)-1]
		*s = (*s)[:len(*s)-1]
		return id
	}

	renumberings, selects := 0, 0
	for step := 0; renumberings < 4; step++ {
		if step > 100*headroom {
			t.Fatalf("only %d renumberings in %d steps", renumberings, step)
		}
		before := p.counter
		switch op := rng.Intn(10); {
		case len(resident) < 8 || (op < 2 && len(free) > 0):
			id := take(&free)
			p.OnInsert(id, uint64(id))
			ref.touch(id)
			resident = append(resident, id)
		case op < 5:
			id := resident[rng.Intn(len(resident))]
			p.OnAccess(id, op == 4)
			ref.touch(id)
		case op < 6:
			id := take(&resident)
			p.OnEvict(id)
			ref.ts[id] = 0
			free = append(free, id)
		case op < 7 && len(free) > 0:
			// A chain of one to three hops, leaf-first: each block
			// slides into the slot the previous hop vacated.
			to := take(&free)
			var moves []Move
			for hops := 1 + rng.Intn(3); hops > 0; hops-- {
				from := take(&resident)
				moves = append(moves, Move{From: from, To: to})
				resident = append(resident, to)
				to = from
			}
			free = append(free, to)
			p.OnMoves(moves)
			for _, m := range moves {
				ref.ts[m.To], ref.ts[m.From] = ref.ts[m.From], 0
			}
		default:
			cands := make([]BlockID, 1+rng.Intn(8))
			for i := range cands {
				cands[i] = resident[rng.Intn(len(resident))]
			}
			if got, want := p.Select(cands), ref.selectVictim(cands); got != want {
				t.Fatalf("step %d (after %d renumberings): Select(%v) = %d, want %d", step, renumberings, cands, got, want)
			}
			selects++
		}
		if p.counter < before {
			renumberings++
			p.counter = math.MaxUint32 - headroom
		}
	}
	t.Logf("%d renumberings, %d selects", renumberings, selects)
}
