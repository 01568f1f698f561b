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
// the L2 holds a tag (8 B), a dirty flag (1 B), an LRU stamp (8 B) and a
// directory entry (16 B); the L1s, the cores' batch buffers and a zcache's
// walk state add the rest. Each bound is the value measured when it was set
// plus 2 B; the line-keyed directory index the entries once had cost 40 B
// more.
func TestHostBytesPerL2Line(t *testing.T) {
	bounds := [...]float64{SetAssocBitSel: 43, SetAssocH3: 44, SkewAssoc: 49, ZCacheL2: 50, ZCacheL3: 53}
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
