// Package order provides an order-statistics treap over uint64 keys.
//
// The associativity framework of the paper (§IV-A) defines a block's
// eviction priority as its *global rank* under the replacement policy,
// normalized to [0,1]. Measuring that rank naively costs O(B) per eviction
// (scan every live block); for an 8MB cache with 131072 lines and millions
// of evictions that is prohibitive. The treap keeps every live block's rank
// key and answers "how many live keys are strictly below k" in O(log B),
// making the associativity-distribution instrumentation cheap enough to run
// inside full-length simulations.
//
// Keys are unique: policies produce strictly monotone rank keys (e.g. a
// 64-bit access timestamp), so duplicate handling is an error rather than a
// silent multiset.
package order

import "fmt"

// Treap is an order-statistics balanced search tree over uint64 keys.
// The zero value is an empty treap ready to use. Treap is not safe for
// concurrent use; the simulator owns one per instrumented cache.
type Treap struct {
	root *node
	rng  uint64
}

type node struct {
	key         uint64
	prio        uint64
	size        int
	left, right *node
}

func size(n *node) int {
	if n == nil {
		return 0
	}
	return n.size
}

func (n *node) update() { n.size = 1 + size(n.left) + size(n.right) }

// nextPrio draws a deterministic pseudo-random heap priority.
func (t *Treap) nextPrio() uint64 {
	// xorshift64*; seeded lazily so the zero value works.
	if t.rng == 0 {
		t.rng = 0x2545f4914f6cdd1d
	}
	t.rng ^= t.rng << 13
	t.rng ^= t.rng >> 7
	t.rng ^= t.rng << 17
	return t.rng
}

// Len returns the number of keys in the treap.
func (t *Treap) Len() int { return size(t.root) }

// Insert adds key. It returns an error if key is already present; rank keys
// must be unique (policies guarantee strict monotonicity).
func (t *Treap) Insert(key uint64) error {
	if t.contains(key) {
		return fmt.Errorf("order: duplicate key %d", key)
	}
	l, r := split(t.root, key)
	n := &node{key: key, prio: t.nextPrio(), size: 1}
	t.root = merge(merge(l, n), r)
	return nil
}

// Delete removes key. It returns an error if key is absent, which in the
// instrumentation layer signals a bookkeeping bug (evicting a block that was
// never inserted, or double-evicting).
func (t *Treap) Delete(key uint64) error {
	if !t.contains(key) {
		return fmt.Errorf("order: delete of missing key %d", key)
	}
	t.root = deleteKey(t.root, key)
	return nil
}

// Contains reports whether key is present.
func (t *Treap) Contains(key uint64) bool { return t.contains(key) }

func (t *Treap) contains(key uint64) bool {
	n := t.root
	for n != nil {
		switch {
		case key < n.key:
			n = n.left
		case key > n.key:
			n = n.right
		default:
			return true
		}
	}
	return false
}

// Rank returns the number of keys strictly less than key. key itself need
// not be present. With B live blocks and a policy where larger keys mean
// "more recently valuable", the eviction priority of a victim with key k is
// (B-1-Rank(k)) / (B-1) ... or directly Rank(k)/(B-1) when larger keys mean
// "prefer to evict". The caller chooses the orientation.
func (t *Treap) Rank(key uint64) int {
	n := t.root
	rank := 0
	for n != nil {
		if key <= n.key {
			n = n.left
		} else {
			rank += size(n.left) + 1
			n = n.right
		}
	}
	return rank
}

// Kth returns the k-th smallest key (0-based) and true, or 0 and false if
// k is out of range.
func (t *Treap) Kth(k int) (uint64, bool) {
	if k < 0 || k >= t.Len() {
		return 0, false
	}
	n := t.root
	for {
		ls := size(n.left)
		switch {
		case k < ls:
			n = n.left
		case k > ls:
			k -= ls + 1
			n = n.right
		default:
			return n.key, true
		}
	}
}

// split partitions n into keys < key and keys >= key.
func split(n *node, key uint64) (l, r *node) {
	if n == nil {
		return nil, nil
	}
	if n.key < key {
		l2, r2 := split(n.right, key)
		n.right = l2
		n.update()
		return n, r2
	}
	l2, r2 := split(n.left, key)
	n.left = r2
	n.update()
	return l2, n
}

// merge joins l and r where every key in l is less than every key in r.
func merge(l, r *node) *node {
	switch {
	case l == nil:
		return r
	case r == nil:
		return l
	case l.prio > r.prio:
		l.right = merge(l.right, r)
		l.update()
		return l
	default:
		r.left = merge(l, r.left)
		r.update()
		return r
	}
}

func deleteKey(n *node, key uint64) *node {
	if n == nil {
		return nil
	}
	switch {
	case key < n.key:
		n.left = deleteKey(n.left, key)
	case key > n.key:
		n.right = deleteKey(n.right, key)
	default:
		return merge(n.left, n.right)
	}
	n.update()
	return n
}
