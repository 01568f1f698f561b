package sim

import (
	"testing"

	"zcache/internal/cache"
	"zcache/internal/energy"
	"zcache/internal/repl"
)

// TestL2CoreArithmetic checks the banked-L2 core where its arithmetic lives,
// rather than through the three drivers that share it: bank and controller
// routing, the queue bucket, and the counter fold.
func TestL2CoreArithmetic(t *testing.T) {
	cfg := tinyConfig(ZCacheL2, repl.KindLRU) // 4 banks, 2 MCUs, 64 B lines
	cfg.MemBytesPerCycle = 16                 // 8 B/cycle per MCU: 8 cycles a line
	l, err := newL2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if l.mcuOccup != 8 {
		t.Errorf("mcuOccup = %d, want 8", l.mcuOccup)
	}

	t.Run("routing", func(t *testing.T) {
		for _, tc := range []struct {
			line      uint64
			bank, mcu int
			bankAddr  uint64
		}{
			{line: 0, bank: 0, mcu: 0, bankAddr: 0},
			{line: 3, bank: 3, mcu: 0, bankAddr: 0},
			{line: 4, bank: 0, mcu: 1, bankAddr: 1 << 6},
			{line: 0x1237, bank: 3, mcu: 1, bankAddr: 0x48d << 6},
			{line: 1<<44 | 0x12, bank: 2, mcu: 0, bankAddr: (1<<42 | 0x4) << 6},
		} {
			if got := l.bankOf(tc.line); got != tc.bank {
				t.Errorf("bankOf(%#x) = %d, want %d", tc.line, got, tc.bank)
			}
			if got := l.mcuOf(tc.line); got != tc.mcu {
				t.Errorf("mcuOf(%#x) = %d, want %d", tc.line, got, tc.mcu)
			}
			addr := l.bankAddr(tc.line)
			if addr != tc.bankAddr {
				t.Errorf("bankAddr(%#x) = %#x, want %#x", tc.line, addr, tc.bankAddr)
			}
			if back := l.fullLine(tc.bank, addr>>l.lineBits); back != tc.line {
				t.Errorf("fullLine(%d, bankAddr(%#x)) = %#x: routing does not round-trip", tc.bank, tc.line, back)
			}
		}
	})

	t.Run("queue", func(t *testing.T) {
		var q queue
		for i, tc := range []struct{ now, occup, wait uint64 }{
			{now: 100, occup: 8, wait: 0},  // idle: starts at once, busy to 108
			{now: 100, occup: 8, wait: 8},  // behind the first, busy to 116
			{now: 110, occup: 8, wait: 6},  // still backed up, busy to 124
			{now: 124, occup: 8, wait: 0},  // arrives as it frees
			{now: 1000, occup: 1, wait: 0}, // long after the burst drained
			{now: 1000, occup: 1, wait: 1}, // a tag port: one slot per cycle
		} {
			if got := q.wait(tc.now, tc.occup); got != tc.wait {
				t.Errorf("step %d: wait(%d, %d) = %d, want %d", i, tc.now, tc.occup, got, tc.wait)
			}
		}
	})

	t.Run("fold", func(t *testing.T) {
		// Bank 0: 10 demand lookups (4 single reads each) plus 6 walk
		// lookups that read 15 single tags, and 2 relocations (one tag
		// read each). Bank 1: demand only. Bank 2: inconsistent counters
		// (fewer reads than the demand lookups imply) must clamp to 0.
		set := func(b int, demand uint64, c cache.Counters) {
			l.banks[b].demand = demand
			*l.banks[b].cache.Array().Counters() = c
		}
		set(0, 10, cache.Counters{TagLookups: 16, WalkLookups: 6, TagReads: 40 + 15 + 2, Relocations: 2})
		set(1, 5, cache.Counters{TagLookups: 5, TagReads: 20})
		set(2, 1, cache.Counters{TagLookups: 3, TagReads: 7, Relocations: 1})
		counts := energy.SystemCounts{L2Relocations: 100, L2WalkTagReads: 1000}
		demand, tagLookups := l.fold(&counts)
		if demand != 16 || tagLookups != 24 {
			t.Errorf("fold: demand %d, tag lookups %d; want 16, 24", demand, tagLookups)
		}
		if counts.L2Relocations != 103 || counts.L2WalkTagReads != 1015 {
			t.Errorf("fold: relocations %d, walk tag reads %d; want 103, 1015",
				counts.L2Relocations, counts.L2WalkTagReads)
		}

		l.resetBankCounters()
		counts = energy.SystemCounts{}
		if d, tl := l.fold(&counts); d != 0 || tl != 0 || counts != (energy.SystemCounts{}) {
			t.Errorf("after reset: demand %d, tag lookups %d, counts %+v", d, tl, counts)
		}
	})
}
