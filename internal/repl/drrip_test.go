package repl

import "testing"

func TestDRRIPConstruction(t *testing.T) {
	if _, err := NewDRRIP(0, 2, 1); err == nil {
		t.Error("0 blocks accepted")
	}
	if _, err := NewDRRIP(16, 0, 1); err == nil {
		t.Error("0-bit RRPV accepted")
	}
	p, err := NewDRRIP(16, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "drrip" {
		t.Error("name broken")
	}
}

func TestDRRIPLeadershipPartition(t *testing.T) {
	p, _ := NewDRRIP(16, 2, 1)
	counts := [3]int{}
	for a := uint64(0); a < 100000; a++ {
		counts[p.leadership(a*64)]++
	}
	// 1/32 of lines lead each policy.
	for _, leader := range []int{0, 1} {
		frac := float64(counts[leader]) / 100000
		if frac < 0.02 || frac > 0.05 {
			t.Errorf("leader %d fraction = %.4f, want ~1/32", leader, frac)
		}
	}
	if counts[2] < 90000 {
		t.Errorf("followers = %d, want the vast majority", counts[2])
	}
}

func TestDRRIPDuelingMovesPSEL(t *testing.T) {
	p, _ := NewDRRIP(64, 2, 1)
	start := p.PSEL()
	// Insert many SRRIP-leader lines: PSEL must fall (their misses count
	// against SRRIP).
	inserted := 0
	for a := uint64(0); inserted < 50; a++ {
		if p.leadership(a*64) == 0 {
			p.OnInsert(BlockID(inserted%64), a*64)
			inserted++
		}
	}
	if p.PSEL() >= start {
		t.Errorf("PSEL did not fall under SRRIP-leader misses: %d -> %d", start, p.PSEL())
	}
	// Now hammer BRRIP leaders: PSEL must rise again.
	low := p.PSEL()
	inserted = 0
	for a := uint64(0); inserted < 100; a++ {
		if p.leadership(a*64) == 1 {
			p.OnInsert(BlockID(inserted%64), a*64)
			inserted++
		}
	}
	if p.PSEL() <= low {
		t.Errorf("PSEL did not rise under BRRIP-leader misses: %d -> %d", low, p.PSEL())
	}
}

func TestDRRIPResistsScansBetterThanSRRIP(t *testing.T) {
	// The DRRIP raison d'être: a cyclic working set larger than the
	// cache. SRRIP (like LRU) thrashes — every block ages out just
	// before its reuse. BRRIP's distant insertion keeps a stable subset
	// resident across laps; DRRIP's dueling discovers that and wins.
	run := func(mk func(int) (Policy, error)) int {
		const blocks = 256
		pol, err := mk(blocks)
		if err != nil {
			t.Fatal(err)
		}
		// Simple direct model: a fully-associative cache driven by the
		// policy (Select over all resident blocks).
		resident := map[uint64]BlockID{}
		slotOf := make([]uint64, blocks)
		free := blocks
		misses := 0
		access := func(addr uint64) {
			if id, ok := resident[addr]; ok {
				pol.OnAccess(id, false)
				return
			}
			misses++
			var id BlockID
			if free > 0 {
				id = BlockID(blocks - free)
				free--
			} else {
				cands := make([]BlockID, 0, blocks)
				for i := 0; i < blocks; i++ {
					cands = append(cands, BlockID(i))
				}
				id = cands[pol.Select(cands)]
				delete(resident, slotOf[id])
				pol.OnEvict(id)
			}
			pol.OnInsert(id, addr)
			resident[addr] = id
			slotOf[id] = addr
		}
		for i := 0; i < 120000; i++ {
			access(uint64(i%512) * 64) // cyclic thrash: 2x capacity
		}
		return misses
	}
	srrip := run(func(b int) (Policy, error) { return NewSRRIP(b, 2) })
	drrip := run(func(b int) (Policy, error) { return NewDRRIP(b, 2, 7) })
	if drrip >= srrip {
		t.Errorf("DRRIP misses %d not below SRRIP misses %d on scan+hot mix", drrip, srrip)
	}
}

func TestDRRIPKeysUniqueAndMovable(t *testing.T) {
	p, _ := NewDRRIP(32, 2, 5)
	seen := map[uint64]bool{}
	for i := BlockID(0); i < 32; i++ {
		p.OnInsert(i, uint64(i)*64)
		k := p.RetentionKey(i)
		if seen[k] {
			t.Fatalf("duplicate retention key %d", k)
		}
		seen[k] = true
	}
	k := p.RetentionKey(3)
	p.OnMoves([]Move{{From: 3, To: 7}})
	p.OnEvict(3) // no-op for state already moved; must not panic
	if p.RetentionKey(7) != k {
		t.Error("move lost state")
	}
}
