package repl

import "fmt"

// Kind names one of the policies this package builds. It is the one
// vocabulary every layer shares: the simulator's L2 policy, the root
// package's cache configuration, the key-value store's shards, the
// result store's cell keys and every -policy flag.
//
// The numbers are stamped into persisted shard files and result-store
// cell keys, so the order is fixed: append, never reorder.
type Kind int

const (
	// KindBucketedLRU is the paper's evaluated LRU (§III-E): 8-bit
	// wrapped timestamps bumped every 5% of the cache size. It is the
	// zero value.
	KindBucketedLRU Kind = iota
	// KindLRU is full-timestamp LRU (§III-E "Full LRU").
	KindLRU
	// KindOPT is Belady's optimal policy; it needs a next-use-annotated
	// trace and panics if driven without one.
	KindOPT
	// KindRandom evicts a deterministic pseudo-random candidate.
	KindRandom
	// KindLFU evicts the least frequently used candidate.
	KindLFU
	// KindSRRIP is 2-bit static re-reference interval prediction.
	KindSRRIP
	// KindDRRIP is dynamic RRIP with set-less leader dueling, the
	// repository's take on §VIII's policies suited to the zcache.
	KindDRRIP
)

// kindNames are the command-line spellings, in Kind order.
var kindNames = [...]string{"lru", "lru-full", "opt", "random", "lfu", "srrip", "drrip"}

// String returns the kind's command-line spelling: the paper's evaluated
// bucketed LRU is plain "lru", full-timestamp LRU is "lru-full".
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("policy(%d)", int(k))
}

// ParseKind resolves a command-line policy name, the inverse of String.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("unknown policy %q", name)
}

// New builds a policy of this kind for a cache of blocks slots. seed
// drives the stochastic kinds (Random, DRRIP); the others ignore it.
func (k Kind) New(blocks int, seed uint64) (Policy, error) {
	switch k {
	case KindBucketedLRU:
		return PaperBucketedLRU(blocks)
	case KindLRU:
		return NewLRU(blocks)
	case KindOPT:
		return NewOPT(blocks)
	case KindRandom:
		return NewRandom(blocks, seed)
	case KindLFU:
		return NewLFU(blocks)
	case KindSRRIP:
		return NewSRRIP(blocks, 2)
	case KindDRRIP:
		return NewDRRIP(blocks, 2, seed)
	default:
		return nil, fmt.Errorf("repl: unknown %v", k)
	}
}
