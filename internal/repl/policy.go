// Package repl implements replacement policies under the paper's analytical
// model (§IV-A): a policy maintains a *global* ranking of all resident
// blocks by eviction preference, independent of how the cache array is
// organized. This is the property that lets the same policy drive a
// set-associative cache, a skew-associative cache, and a zcache, and lets
// the associativity framework measure eviction priorities uniformly.
//
// Two concerns are deliberately separated, following §II's closing remark
// that associativity and replacement policy are separate issues:
//
//   - Selection: given the replacement candidates the array found, which one
//     does the policy evict? (Policy.Select)
//   - Global rank: where does each resident block sit in the policy's global
//     ordering? Only the instrumentation in package assoc asks, to compute
//     eviction priorities, so the rank belongs to it: for the LRU family the
//     order is touch order, which the instrumentation counts itself, and a
//     policy stores no per-block state that only a measurement reads. A
//     policy whose order is something else implements Ranker.
package repl

import "fmt"

// BlockID identifies a resident block's physical slot in a cache array
// (way*rows + row in a zcache, row*ways + way in a set-associative array).
// It is stable while the block stays in that slot; zcache relocations move
// a block between slots via OnMoves.
type BlockID uint32

// NoVictim is returned by Select implementations when given no candidates.
const NoVictim = -1

// Move describes one relocation in a zcache install chain: the block in
// From slides into the vacant To slot. Chains are applied leaf-first, so
// each move's destination is vacant when it lands.
type Move struct {
	From, To BlockID
}

// Policy is a replacement policy driven by cache events.
//
// The cache wrapper guarantees: OnInsert is called at most once per slot
// without an intervening OnEvict for that slot; OnAccess/OnEvict/OnMoves only
// reference slots previously inserted; each move's destination slot is
// vacant when it is applied.
// Policies are not safe for concurrent use; each cache owns one instance.
type Policy interface {
	// Name identifies the policy, for reports.
	Name() string
	// OnInsert records that addr became resident in slot id.
	OnInsert(id BlockID, addr uint64)
	// OnAccess records a hit on slot id.
	OnAccess(id BlockID, write bool)
	// OnEvict records that slot id's block left the cache.
	OnEvict(id BlockID)
	// OnMoves records a zcache relocation chain, one call per install:
	// each resident block slides from its From slot to its To slot (the
	// block itself, and thus its rank, is unchanged), in order, and
	// leaves its source as an evicted slot.
	OnMoves(moves []Move)
	// Select returns the index within cands of the block to evict, or
	// NoVictim if cands is empty. cands always holds resident slots.
	Select(cands []BlockID) int
}

// Ranker is implemented by the policies whose global order is not touch
// order: OPT, LFU, Random, SRRIP and DRRIP.
type Ranker interface {
	// RetentionKey returns the block's position in the policy's global
	// ordering: unique across resident blocks, larger = more valuable.
	// Uniqueness is what lets the instrumentation answer rank queries in
	// O(log B) through an order-statistics treap.
	RetentionKey(id BlockID) uint64
}

// FutureAware is implemented by trace-driven policies (OPT) that need the
// future of the reference stream. The driver calls SetNextUse with the
// current access's next-use index (trace.NoNextUse if never reused) before
// invoking the cache, so OnInsert/OnAccess can attach it to the block.
type FutureAware interface {
	SetNextUse(next uint64)
}

// checkBlocks validates a block-count argument shared by all constructors.
func checkBlocks(policy string, numBlocks int) error {
	if numBlocks <= 0 {
		return fmt.Errorf("repl: %s needs a positive block count, got %d", policy, numBlocks)
	}
	if numBlocks > 1<<31 {
		return fmt.Errorf("repl: %s block count %d exceeds BlockID range", policy, numBlocks)
	}
	return nil
}
