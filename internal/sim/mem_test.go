package sim

import (
	"runtime"
	"testing"

	"zcache/internal/energy"
	"zcache/internal/repl"
	"zcache/internal/trace"
)

// TestHostBytesPerL2Line bounds the live heap NewSystem holds per simulated
// L2 line at the benchmark's simulator geometry (the root package's
// TestPreset: Table I with 4 cores and a 512 KB L2 in 4 banks), so a second
// per-line structure beside the tag arrays cannot return unnoticed. Per line
// the L2 holds what TestHeapBytesPerL2Slot pins, 12¾ B at 4 cores; the L1s
// with their 4-byte L2 slot links, the cores' batch buffers and a zcache's
// walk state add the rest. Each bound is the value measured when it was set
// plus about 2 B; the line-keyed directory index the directory once had
// cost 40 B more.
func TestHostBytesPerL2Line(t *testing.T) {
	bounds := [...]float64{SetAssocBitSel: 20, SetAssocH3: 21, SkewAssoc: 26, ZCacheL2: 27, ZCacheL3: 30}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for d := SetAssocBitSel; d.valid(); d++ {
		cfg := PaperSystem(d, repl.KindLRU, energy.Serial, 4)
		cfg.Cores, cfg.L2Bytes, cfg.L2Banks = 4, 512<<10, 4
		gens := make([]trace.Generator, cfg.Cores)
		for i := range gens {
			gens[i] = trace.NewReplay("empty", nil)
		}
		heap0 := liveHeap()
		sys, err := NewSystem(cfg, gens)
		if err != nil {
			t.Fatal(err)
		}
		heap1 := liveHeap()
		runtime.KeepAlive(sys)
		per := float64(int64(heap1)-int64(heap0)) / float64(cfg.L2Bytes/cfg.LineBytes)
		t.Logf("%v: %.2f B per L2 line", d, per)
		if per > bounds[d] {
			t.Errorf("%v: %.2f host bytes per L2 line, want at most %.0f", d, per, bounds[d])
		}
	}
}

// TestHeapBytesPerL2Slot pins what one L2 slot costs NewSystem on the Go
// heap, on every design and at core counts that give the directory sharer
// fields of 1, 4, 32 and 64 bits: a tag (8 B), a full-LRU stamp (4 B), a
// dirty bit (⅛ B), the directory's sharer field (2^⌈log₂ Cores⌉ bits) and
// its owned bit (⅛ B). It builds the same system at two L2 sizes and
// divides the extra bytes allocated by the extra slots, so the L1s and every
// fixed cost cancel out. Each size takes the least of three builds: the
// runtime's own allocations can only add.
func TestHeapBytesPerL2Slot(t *testing.T) {
	allocated := func(cfg Config) uint64 {
		least := ^uint64(0)
		for range 3 {
			gens := make([]trace.Generator, cfg.Cores)
			for i := range gens {
				gens[i] = trace.NewReplay("empty", nil)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			sys, err := NewSystem(cfg, gens)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(sys)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	const fixed = 8 + 4 + 1.0/8 + 1.0/8
	for _, c := range []struct {
		cores int
		want  float64
	}{
		{1, fixed + 1.0/8},
		{3, fixed + 4.0/8},
		{4, fixed + 4.0/8},
		{32, fixed + 32.0/8},
		{64, fixed + 64.0/8},
	} {
		for d := SetAssocBitSel; d.valid(); d++ {
			small := PaperSystem(d, repl.KindLRU, energy.Serial, 4)
			small.Cores, small.L2Bytes, small.L2Banks = c.cores, 1<<20, 4
			large := small
			large.L2Bytes *= 4
			slots := float64((large.L2Bytes - small.L2Bytes) / small.LineBytes)
			per := float64(int64(allocated(large))-int64(allocated(small))) / slots
			t.Logf("%v, %d cores: %.3f B per L2 slot", d, c.cores, per)
			if per < c.want-0.05 || per > c.want+0.05 {
				t.Errorf("%v, %d cores: %.3f heap bytes per L2 slot, want %.3f", d, c.cores, per, c.want)
			}
		}
	}
}
