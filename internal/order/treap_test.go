package order

import (
	"sort"
	"testing"
	"testing/quick"

	"zcache/internal/hash"
)

func TestEmptyTreap(t *testing.T) {
	var tr Treap
	if tr.Len() != 0 {
		t.Errorf("empty Len = %d", tr.Len())
	}
	if _, ok := tr.Kth(-1); ok {
		t.Error("empty Kth(-1) returned ok")
	}
	if _, ok := tr.Kth(0); ok {
		t.Error("empty Kth(0) returned ok")
	}
	if tr.Rank(42) != 0 {
		t.Errorf("empty Rank = %d", tr.Rank(42))
	}
	if err := tr.Delete(1); err == nil {
		t.Error("delete from empty treap succeeded")
	}
}

func TestInsertDeleteBasics(t *testing.T) {
	var tr Treap
	keys := []uint64{5, 1, 9, 3, 7}
	for _, k := range keys {
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 5 {
		t.Fatalf("Len = %d, want 5", tr.Len())
	}
	if err := tr.Insert(5); err == nil {
		t.Error("duplicate insert succeeded")
	}
	if got := tr.Rank(5); got != 2 {
		t.Errorf("Rank(5) = %d, want 2", got)
	}
	if got := tr.Rank(6); got != 3 {
		t.Errorf("Rank(6) = %d, want 3 (absent keys rank too)", got)
	}
	if got := tr.Rank(0); got != 0 {
		t.Errorf("Rank(0) = %d, want 0", got)
	}
	if got := tr.Rank(100); got != 5 {
		t.Errorf("Rank(100) = %d, want 5", got)
	}
	if k, _ := tr.Kth(0); k != 1 {
		t.Errorf("Kth(0) = %d, want 1", k)
	}
	if k, _ := tr.Kth(tr.Len() - 1); k != 9 {
		t.Errorf("Kth(Len-1) = %d, want 9", k)
	}
	if err := tr.Delete(3); err != nil {
		t.Fatal(err)
	}
	if tr.Contains(3) {
		t.Error("Contains(3) after delete")
	}
	if got := tr.Rank(5); got != 1 {
		t.Errorf("Rank(5) after delete = %d, want 1", got)
	}
}

func TestKthMatchesSortedOrder(t *testing.T) {
	var tr Treap
	keys := []uint64{}
	for i := 0; i < 500; i++ {
		k := hash.Mix64(uint64(i))
		keys = append(keys, k)
		if err := tr.Insert(k); err != nil {
			t.Fatal(err)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for i, want := range keys {
		got, ok := tr.Kth(i)
		if !ok || got != want {
			t.Fatalf("Kth(%d) = %d,%v want %d", i, got, ok, want)
		}
	}
}

// refModel is a naive slice-backed reference implementation.
type refModel struct{ keys []uint64 }

func (m *refModel) insert(k uint64) {
	m.keys = append(m.keys, k)
	sort.Slice(m.keys, func(i, j int) bool { return m.keys[i] < m.keys[j] })
}

func (m *refModel) delete(k uint64) {
	for i, v := range m.keys {
		if v == k {
			m.keys = append(m.keys[:i], m.keys[i+1:]...)
			return
		}
	}
}

func (m *refModel) rank(k uint64) int {
	n := 0
	for _, v := range m.keys {
		if v < k {
			n++
		}
	}
	return n
}

func (m *refModel) contains(k uint64) bool {
	for _, v := range m.keys {
		if v == k {
			return true
		}
	}
	return false
}

func TestTreapAgainstReferenceModel(t *testing.T) {
	var tr Treap
	var ref refModel
	rng := hash.Mix64
	state := uint64(12345)
	for step := 0; step < 5000; step++ {
		state = rng(state)
		op := state % 3
		key := rng(state^0xdead) % 256 // small key space to force collisions
		switch op {
		case 0: // insert
			wantErr := ref.contains(key)
			err := tr.Insert(key)
			if (err != nil) != wantErr {
				t.Fatalf("step %d: Insert(%d) err=%v, ref contains=%v", step, key, err, wantErr)
			}
			if !wantErr {
				ref.insert(key)
			}
		case 1: // delete
			wantErr := !ref.contains(key)
			err := tr.Delete(key)
			if (err != nil) != wantErr {
				t.Fatalf("step %d: Delete(%d) err=%v, ref missing=%v", step, key, err, wantErr)
			}
			if !wantErr {
				ref.delete(key)
			}
		case 2: // query
			if got, want := tr.Rank(key), ref.rank(key); got != want {
				t.Fatalf("step %d: Rank(%d) = %d, want %d", step, key, got, want)
			}
			if got, want := tr.Contains(key), ref.contains(key); got != want {
				t.Fatalf("step %d: Contains(%d) = %v, want %v", step, key, got, want)
			}
			if got, want := tr.Len(), len(ref.keys); got != want {
				t.Fatalf("step %d: Len = %d, want %d", step, got, want)
			}
		}
	}
}

func TestRankPropertyQuick(t *testing.T) {
	// Property: after inserting any set of distinct keys, Rank(k) equals
	// the count of inserted keys strictly below k.
	f := func(raw []uint64, probe uint64) bool {
		var tr Treap
		seen := map[uint64]bool{}
		for _, k := range raw {
			if !seen[k] {
				seen[k] = true
				if tr.Insert(k) != nil {
					return false
				}
			}
		}
		want := 0
		for k := range seen {
			if k < probe {
				want++
			}
		}
		return tr.Rank(probe) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTreapBalance(t *testing.T) {
	// Sequential inserts (the worst case for an unbalanced BST) must stay
	// logarithmic. We check via depth probe: Rank on a huge treap should
	// not stack-overflow and operations should complete quickly.
	var tr Treap
	const n = 200000
	for i := uint64(0); i < n; i++ {
		if err := tr.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	if got := tr.Rank(n / 2); got != n/2 {
		t.Errorf("Rank(n/2) = %d, want %d", got, n/2)
	}
	d := depth(tr.root)
	// Expected depth ~1.39*log2(n) ≈ 35 for a treap; 4x slack.
	if d > 120 {
		t.Errorf("treap depth %d after sequential inserts; not balanced", d)
	}
}

func depth(n *node) int {
	if n == nil {
		return 0
	}
	l, r := depth(n.left), depth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func TestSubtreeSizesConsistent(t *testing.T) {
	var tr Treap
	state := uint64(7)
	for i := 0; i < 2000; i++ {
		state = hash.Mix64(state)
		_ = tr.Insert(state % 500)
		if i%3 == 0 {
			_ = tr.Delete(hash.Mix64(state^1) % 500)
		}
	}
	var check func(n *node) int
	var bad bool
	check = func(n *node) int {
		if n == nil {
			return 0
		}
		s := 1 + check(n.left) + check(n.right)
		if s != n.size {
			bad = true
		}
		return s
	}
	check(tr.root)
	if bad {
		t.Error("subtree size fields inconsistent")
	}
}

func BenchmarkTreapInsertDeleteRank(b *testing.B) {
	var tr Treap
	// Steady-state: cache-sized population, each op = delete+insert+rank,
	// which is exactly one instrumented eviction.
	const pop = 131072
	for i := uint64(0); i < pop; i++ {
		_ = tr.Insert(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		old := uint64(i) % pop
		_ = tr.Delete(old)
		_ = tr.Insert(pop + uint64(i))
		_ = tr.Rank(pop + uint64(i)/2)
		_ = tr.Insert(old) // restore population
		_ = tr.Delete(pop + uint64(i))
	}
}
