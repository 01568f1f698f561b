package zkvproto

import (
	"bytes"
	"testing"
)

func TestGrownSize(t *testing.T) {
	for _, c := range []struct{ size, burst, want int }{
		{4 << 10, 0, 4 << 10},
		{4 << 10, 1264, 4 << 10},      // a 16-deep burst of 64 B SETs fits
		{4 << 10, 4 << 10, 4 << 10},   // exactly full still fits
		{4 << 10, 4<<10 + 1, 8 << 10}, // one byte over: the next power of two
		{4 << 10, 16464, 32 << 10},    // 16 replies of 1 KiB
		{32 << 10, 16464, 32 << 10},   // never shrinks
		{32 << 10, 65616, 64 << 10},   // 16 replies of 4 KiB: capped
		{64 << 10, 1 << 20, 64 << 10}, // at the cap already
	} {
		if got := grownSize(c.size, c.burst); got != c.want {
			t.Errorf("grownSize(%d, %d) = %d, want %d", c.size, c.burst, got, c.want)
		}
	}
}

// wireRW is an in-memory connection end: reads drain in, writes append to
// out, and both are counted.
type wireRW struct {
	in, out       bytes.Buffer
	reads, writes int
}

func (w *wireRW) Read(p []byte) (int, error) {
	w.reads++
	return w.in.Read(p)
}

func (w *wireRW) Write(p []byte) (int, error) {
	w.writes++
	return w.out.Write(p)
}

// TestConnBuffersGrowWithBursts: a 16-deep burst of 1 KiB SETs overflows the
// 4 KiB buffers once each way; from the next burst on it leaves in one write
// and arrives in one read.
func TestConnBuffersGrowWithBursts(t *testing.T) {
	rw := &wireRW{}
	b := NewConnBuffers(rw)
	val := make([]byte, 1024)
	const depth = 16
	for burst := 0; burst < 3; burst++ {
		writes, reads := rw.writes, rw.reads
		req := Request{Op: OpSet, Key: []byte("key"), Val: val}
		for i := 0; i < depth; i++ {
			if err := req.WriteTo(b.W); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
		// Loop the burst back and read it, leaving the next burst's first
		// byte in the reader: EndRead must wait for the boundary.
		rw.in.Write(rw.out.Bytes())
		rw.in.WriteByte(OpPing)
		rw.out.Reset()
		for i := 0; i < depth; i++ {
			if err := req.ReadFrom(b.R); err != nil || len(req.Val) != len(val) {
				t.Fatalf("burst %d frame %d: %v", burst, i, err)
			}
		}
		b.EndRead()
		if b.R.Size() != minConnBuffer && burst == 0 {
			t.Fatalf("EndRead grew the reader while it held the next burst's first byte")
		}
		b.R.Discard(1)
		b.EndRead()
		writes, reads = rw.writes-writes, rw.reads-reads
		t.Logf("burst %d: %d writes, %d reads; buffers %d/%d B", burst, writes, reads, b.R.Size(), b.W.Size())
		if b.R.Size() != 32<<10 || b.W.Size() != 32<<10 {
			t.Fatalf("after burst %d: reader %d B, writer %d B, want 32 KiB each", burst, b.R.Size(), b.W.Size())
		}
		if burst > 0 && (writes != 1 || reads != 1) {
			t.Fatalf("burst %d took %d writes and %d reads, want 1 and 1", burst, writes, reads)
		}
	}
}
