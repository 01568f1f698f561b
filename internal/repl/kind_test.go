package repl

import (
	"math/rand"
	"testing"
)

var allKinds = []Kind{KindBucketedLRU, KindLRU, KindOPT, KindRandom, KindLFU, KindSRRIP, KindDRRIP}

// TestKindNames pins the -policy spellings: every kind round-trips through
// String and ParseKind, and nothing else parses.
func TestKindNames(t *testing.T) {
	want := []string{"lru", "lru-full", "opt", "random", "lfu", "srrip", "drrip"}
	for i, k := range allKinds {
		if k.String() != want[i] {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want[i])
		}
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
	}
	for _, name := range []string{"", "LRU", "lru-bucketed", "policy(9)", "mru"} {
		if got, err := ParseKind(name); err == nil {
			t.Errorf("ParseKind(%q) accepted as %v", name, got)
		}
	}
	if _, err := Kind(9).New(64, 1); err == nil {
		t.Error("Kind(9).New succeeded")
	}
}

// TestKindNew checks that each kind builds the policy its constructor
// builds, and that Random and DRRIP pick the same victims from seeds s and
// s|1: the constructors force the low bit themselves, so a caller that
// also sets it changes nothing.
func TestKindNew(t *testing.T) {
	const blocks = 64
	direct := map[Kind]func() (Policy, error){
		KindBucketedLRU: func() (Policy, error) { return PaperBucketedLRU(blocks) },
		KindLRU:         func() (Policy, error) { return NewLRU(blocks) },
		KindOPT:         func() (Policy, error) { return NewOPT(blocks) },
		KindRandom:      func() (Policy, error) { return NewRandom(blocks, 6) },
		KindLFU:         func() (Policy, error) { return NewLFU(blocks) },
		KindSRRIP:       func() (Policy, error) { return NewSRRIP(blocks, 2) },
		KindDRRIP:       func() (Policy, error) { return NewDRRIP(blocks, 2, 6) },
	}
	for _, k := range allKinds {
		p, err := k.New(blocks, 6)
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		q, err := direct[k]()
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != q.Name() {
			t.Errorf("%v.New builds %s, its constructor %s", k, p.Name(), q.Name())
		}
	}
	for _, k := range []Kind{KindRandom, KindDRRIP} {
		for _, s := range []uint64{0, 6, 0xC0FFEE} {
			a, b := victims(t, k, s), victims(t, k, s|1)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%v: seeds %#x and %#x diverge at victim %d", k, s, s|1, i)
				}
			}
		}
	}
}

// victims drives a full 64-block policy of kind k through a fixed stream
// of hits and 8-candidate misses and returns the slots it evicted.
func victims(t *testing.T, k Kind, seed uint64) []BlockID {
	t.Helper()
	const blocks = 64
	p, err := k.New(blocks, seed)
	if err != nil {
		t.Fatal(err)
	}
	for id := BlockID(0); id < blocks; id++ {
		p.OnInsert(id, uint64(id))
	}
	rng := rand.New(rand.NewSource(1))
	var out []BlockID
	cands := make([]BlockID, 8)
	for i := 0; i < 4000; i++ {
		if rng.Intn(3) > 0 {
			p.OnAccess(BlockID(rng.Intn(blocks)), rng.Intn(4) == 0)
			continue
		}
		for j, id := range rng.Perm(blocks)[:len(cands)] {
			cands[j] = BlockID(id)
		}
		v := cands[p.Select(cands)]
		p.OnEvict(v)
		p.OnInsert(v, uint64(blocks+i))
		out = append(out, v)
	}
	return out
}
