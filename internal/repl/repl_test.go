package repl

import (
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

// allPolicies builds one instance of every policy for table-driven tests.
func allPolicies(t *testing.T, blocks int) []Policy {
	t.Helper()
	lru, err := NewLRU(blocks)
	if err != nil {
		t.Fatal(err)
	}
	blru, err := NewBucketedLRU(blocks, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOPT(blocks)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := NewRandom(blocks, 7)
	if err != nil {
		t.Fatal(err)
	}
	lfu, err := NewLFU(blocks)
	if err != nil {
		t.Fatal(err)
	}
	srrip, err := NewSRRIP(blocks, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []Policy{lru, blru, opt, rnd, lfu, srrip}
}

// feed drives an access event, satisfying OPT's SetNextUse contract.
func feed(p Policy, f func()) {
	if fa, ok := p.(FutureAware); ok {
		fa.SetNextUse(noReuse)
	}
	f()
}

func TestConstructorsRejectBadBlockCounts(t *testing.T) {
	if _, err := NewLRU(0); err == nil {
		t.Error("LRU accepted 0 blocks")
	}
	if _, err := NewBucketedLRU(-1, 8, 1); err == nil {
		t.Error("BucketedLRU accepted negative blocks")
	}
	if _, err := NewBucketedLRU(4, 0, 1); err == nil {
		t.Error("BucketedLRU accepted 0-bit timestamps")
	}
	if _, err := NewBucketedLRU(4, 8, 0); err == nil {
		t.Error("BucketedLRU accepted 0 interval")
	}
	if _, err := NewOPT(0); err == nil {
		t.Error("OPT accepted 0 blocks")
	}
	if _, err := NewSRRIP(4, 0); err == nil {
		t.Error("SRRIP accepted 0-bit RRPV")
	}
}

func TestSelectEmptyReturnsNoVictim(t *testing.T) {
	for _, p := range allPolicies(t, 8) {
		if got := p.Select(nil); got != NoVictim {
			t.Errorf("%s: Select(nil) = %d, want NoVictim", p.Name(), got)
		}
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	p, _ := NewLRU(4)
	p.OnInsert(0, 100)
	p.OnInsert(1, 101)
	p.OnInsert(2, 102)
	p.OnAccess(0, false) // 0 becomes most recent; 1 is now oldest
	got := p.Select([]BlockID{0, 1, 2})
	if got != 1 {
		t.Errorf("Select = %d, want 1 (oldest)", got)
	}
}

// TestLRURetentionKeysStrictlyIncrease: full LRU's order is touch order, and
// its timestamps — what Select ranks by — strictly increase with it.
func TestLRURetentionKeysStrictlyIncrease(t *testing.T) {
	p, _ := NewLRU(4)
	p.OnInsert(0, 1)
	k0 := p.ts[0]
	p.OnInsert(1, 2)
	k1 := p.ts[1]
	p.OnAccess(0, false)
	k0b := p.ts[0]
	if !(k0 < k1 && k1 < k0b) {
		t.Errorf("keys not strictly increasing: %d %d %d", k0, k1, k0b)
	}
}

// TestOnMoveTransfersState is every policy's relocation contract: after
// a warm history fed next uses through SetNextUse (OPT reads them), a
// zcache chain of one to three hops, applied leaf-first in one OnMoves
// call, leaves each moved block's per-slot state in its destination, the
// vacated source in the state of an evicted slot, and every other slot as
// it was.
func TestOnMoveTransfersState(t *testing.T) {
	const blocks = 16
	chain := []Move{{From: 3, To: 12}, {From: 7, To: 3}, {From: 1, To: 7}}
	for k := Kind(0); int(k) < len(kindNames); k++ {
		for hops := 1; hops <= len(chain); hops++ {
			p, err := k.New(blocks, 9)
			if err != nil {
				t.Fatal(err)
			}
			next := uint64(0)
			feedNext := func(f func()) {
				if fa, ok := p.(FutureAware); ok {
					next++
					fa.SetNextUse(next * 10)
				}
				f()
			}
			// Slots 0..11 filled, slot 11 evicted, 12..15 never filled;
			// the accesses give the blocks distinct ranks.
			for id := BlockID(0); id < 12; id++ {
				feedNext(func() { p.OnInsert(id, 0x40*uint64(id+1)) })
			}
			for _, id := range []BlockID{3, 1, 3, 9, 7} {
				feedNext(func() { p.OnAccess(id, id == 9) })
			}
			p.OnEvict(11)
			evicted := slotState(t, p, 11)

			moves := chain[:hops]
			before := make([][]uint64, blocks)
			for id := range before {
				before[id] = slotState(t, p, BlockID(id))
			}
			p.OnMoves(moves)

			want := before
			for _, m := range moves {
				want[m.To], want[m.From] = want[m.From], evicted
			}
			for id := range want {
				if got := slotState(t, p, BlockID(id)); !reflect.DeepEqual(got, want[id]) {
					t.Errorf("%v, %d hops: slot %d holds %v, want %v", k, hops, id, got, want[id])
				}
			}
		}
	}
}

// slotState is all the per-slot state p keeps for slot id.
func slotState(t *testing.T, p Policy, id BlockID) []uint64 {
	switch p := p.(type) {
	case *LRU:
		return []uint64{uint64(p.ts[id])}
	case *BucketedLRU:
		return []uint64{uint64(p.wrapped[id])}
	case *OPT:
		return []uint64{p.nextUse[id], p.inserted[id]}
	case *Random:
		return []uint64{p.seq[id]}
	case *LFU:
		return []uint64{p.freq[id], p.last[id]}
	case *SRRIP:
		return []uint64{uint64(p.rrpv[id]), p.last[id]}
	case *DRRIP:
		return []uint64{uint64(p.rrpv[id]), p.last[id]}
	}
	t.Fatalf("slotState does not know %T", p)
	return nil
}

func TestBucketedLRUWrapAroundDecision(t *testing.T) {
	// 2-bit timestamps, counter bumps every access: after 4 accesses the
	// counter wraps and an untouched block can look *young*, which is the
	// failure mode the paper trades area for. Verify mod-2^n comparison.
	p, _ := NewBucketedLRU(8, 2, 1)
	p.OnInsert(0, 1) // counter -> 1, ts[0] = 1
	p.OnInsert(1, 2) // counter -> 2, ts[1] = 2
	// 6 more accesses to block 1: counter wraps 3,0,1,2,3,0; ts[1]=0.
	for i := 0; i < 6; i++ {
		p.OnAccess(1, false)
	}
	// counter = 0. Age(0) = (0-1) mod 4 = 3; age(1) = 0. Victim = 0.
	if got := p.Select([]BlockID{0, 1}); got != 0 {
		t.Errorf("Select = %d, want 0", got)
	}
}

func TestBucketedLRUIntervalSlowsCounter(t *testing.T) {
	p, _ := NewBucketedLRU(8, 8, 100)
	p.OnInsert(0, 1)
	for i := 0; i < 50; i++ {
		p.OnAccess(0, false)
	}
	// Counter has not ticked yet (51 < 100 accesses): all wrapped
	// timestamps equal, select degenerates to first candidate.
	p.OnInsert(1, 2)
	if p.wrapped[0] != p.wrapped[1] {
		t.Error("counter ticked before interval elapsed")
	}
}

func TestPaperBucketedLRUConfig(t *testing.T) {
	p, err := PaperBucketedLRU(131072) // 8MB / 64B
	if err != nil {
		t.Fatal(err)
	}
	if p.bits != 8 {
		t.Errorf("bits = %d, want 8", p.bits)
	}
	if p.interval != 6553 { // 5% of 131072
		t.Errorf("interval = %d, want 6553", p.interval)
	}
	if _, err := PaperBucketedLRU(4); err != nil {
		t.Errorf("tiny cache rejected: %v", err)
	}
}

func TestOPTEvictsFurthestReuse(t *testing.T) {
	p, _ := NewOPT(4)
	p.SetNextUse(10)
	p.OnInsert(0, 1)
	p.SetNextUse(5)
	p.OnInsert(1, 2)
	p.SetNextUse(noReuse)
	p.OnInsert(2, 3)
	// Block 2 is never reused: it must be the victim.
	if got := p.Select([]BlockID{0, 1, 2}); got != 2 {
		t.Errorf("Select = %d, want 2 (never reused)", got)
	}
	// Without block 2, block 0 (reuse at 10) loses to block 1 (reuse 5).
	if got := p.Select([]BlockID{0, 1}); got != 0 {
		t.Errorf("Select = %d, want 0 (furthest reuse)", got)
	}
}

func TestOPTPanicsWithoutNextUse(t *testing.T) {
	p, _ := NewOPT(4)
	defer func() {
		if recover() == nil {
			t.Error("OnInsert without SetNextUse did not panic")
		}
	}()
	p.OnInsert(0, 1)
}

func TestOPTRetentionKeyOrdering(t *testing.T) {
	p, _ := NewOPT(4)
	p.SetNextUse(100)
	p.OnInsert(0, 1)
	p.SetNextUse(50)
	p.OnInsert(1, 2)
	p.SetNextUse(noReuse)
	p.OnInsert(2, 3)
	// Sooner reuse = larger key; never-reused smallest.
	if !(p.RetentionKey(1) > p.RetentionKey(0) && p.RetentionKey(0) > p.RetentionKey(2)) {
		t.Errorf("key ordering wrong: %d %d %d",
			p.RetentionKey(0), p.RetentionKey(1), p.RetentionKey(2))
	}
}

func TestRandomSelectIsUniformish(t *testing.T) {
	p, _ := NewRandom(16, 3)
	for i := BlockID(0); i < 16; i++ {
		p.OnInsert(i, uint64(i))
	}
	cands := []BlockID{0, 1, 2, 3}
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[p.Select(cands)]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("candidate %d selected %d/4000 times, want ~1000", i, c)
		}
	}
}

func TestLFUEvictsLeastFrequent(t *testing.T) {
	p, _ := NewLFU(4)
	p.OnInsert(0, 1)
	p.OnInsert(1, 2)
	p.OnAccess(0, false)
	p.OnAccess(0, false)
	p.OnAccess(1, false)
	if got := p.Select([]BlockID{0, 1}); got != 1 {
		t.Errorf("Select = %d, want 1 (lower frequency)", got)
	}
}

func TestSRRIPBehaviour(t *testing.T) {
	p, _ := NewSRRIP(4, 2)
	p.OnInsert(0, 1) // rrpv 2
	p.OnInsert(1, 2) // rrpv 2
	p.OnAccess(0, false)
	// rrpv: block0=0, block1=2. Aging: block1 reaches 3 first.
	if got := p.Select([]BlockID{0, 1}); got != 1 {
		t.Errorf("Select = %d, want 1", got)
	}
	// After aging in Select, a re-accessed block resets to 0.
	p.OnAccess(1, false)
	if p.rrpv[1] != 0 {
		t.Errorf("rrpv after access = %d, want 0", p.rrpv[1])
	}
}

func TestRetentionKeysUniqueAcrossResidentBlocks(t *testing.T) {
	// Drive every Ranker through a random event schedule; at every step,
	// resident blocks must have pairwise distinct retention keys — the
	// invariant the order-statistics instrumentation relies on.
	for _, p := range allPolicies(t, 16) {
		r, ok := p.(Ranker)
		if !ok {
			continue // touch order: the instrumentation's own counter keys it
		}
		resident := map[BlockID]bool{}
		state := uint64(12345)
		rnd := func(n uint64) uint64 {
			state ^= state << 13
			state ^= state >> 7
			state ^= state << 17
			return (state * 0x2545f4914f6cdd1d) % n
		}
		// OPT's contract: next-use indices are unique across accesses
		// (one trace index references one line), so feed a counter.
		nextUseSeq := uint64(0)
		uniqueNextUse := func() uint64 {
			nextUseSeq++
			if nextUseSeq%5 == 0 {
				return noReuse
			}
			return nextUseSeq
		}
		for step := 0; step < 3000; step++ {
			id := BlockID(rnd(16))
			switch rnd(3) {
			case 0:
				if !resident[id] {
					if fa, ok := p.(FutureAware); ok {
						fa.SetNextUse(uniqueNextUse())
					}
					p.OnInsert(id, uint64(step))
					resident[id] = true
				}
			case 1:
				if resident[id] {
					if fa, ok := p.(FutureAware); ok {
						fa.SetNextUse(uniqueNextUse())
					}
					p.OnAccess(id, rnd(2) == 0)
				}
			case 2:
				if resident[id] {
					p.OnEvict(id)
					delete(resident, id)
				}
			}
			seen := map[uint64]BlockID{}
			for id := range resident {
				k := r.RetentionKey(id)
				if other, dup := seen[k]; dup {
					t.Fatalf("%s: blocks %d and %d share key %d at step %d", p.Name(), id, other, k, step)
				}
				seen[k] = id
			}
		}
	}
}

func TestSelectReturnsValidIndexQuick(t *testing.T) {
	for _, p := range allPolicies(t, 32) {
		for i := BlockID(0); i < 32; i++ {
			feed(p, func() { p.OnInsert(i, uint64(i)) })
		}
		pp := p
		f := func(raw []byte) bool {
			if len(raw) == 0 {
				return true
			}
			cands := make([]BlockID, 0, len(raw))
			for _, b := range raw {
				cands = append(cands, BlockID(b%32))
			}
			got := pp.Select(cands)
			return got >= 0 && got < len(cands)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", p.Name(), err)
		}
	}
}

// TestHeapBytesPerBlock pins what the paper's two LRUs cost per cache block
// on the Go heap: bucketed LRU's 8-bit stamp and full LRU's 32-bit
// timestamp, and nothing beside them — the global order the instrumentation
// measures them against is its own touch count.
func TestHeapBytesPerBlock(t *testing.T) {
	const blocks = 1 << 20
	for _, c := range []struct {
		name  string
		want  float64
		build func() (Policy, error)
	}{
		{"lru-bucketed", 1, func() (Policy, error) { return PaperBucketedLRU(blocks) }},
		{"lru", 4, func() (Policy, error) { return NewLRU(blocks) }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, err := c.build()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(p)
		if per := float64(after.TotalAlloc-before.TotalAlloc) / blocks; per < c.want || per > c.want+0.01 {
			t.Errorf("%s: %.3f heap bytes per block, want %.0f", c.name, per, c.want)
		}
	}
}

func BenchmarkLRUAccessSelect(b *testing.B) {
	p, _ := NewLRU(1 << 17)
	for i := BlockID(0); i < 1<<17; i++ {
		p.OnInsert(i, uint64(i))
	}
	cands := []BlockID{1, 1000, 20000, 99999}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.OnAccess(BlockID(i&(1<<17-1)), false)
		_ = p.Select(cands)
	}
}
