package zkvproto

import (
	"bufio"
	"io"
	"math/bits"
)

// A connection end's buffers start at minConnBuffer bytes, as net/http's do,
// and never exceed maxConnBuffer, the fixed size they had before they were
// sized by traffic.
const (
	minConnBuffer = 4 << 10
	maxConnBuffer = 64 << 10
)

// ConnBuffers is one end of a connection's read and write buffers, sized by
// the connection's bursts. Both start at 4 KiB. At a burst boundary a buffer
// the burst just ended overflowed grows to the next power of two at or above
// the burst's bytes, up to 64 KiB, so a connection whose bursts fit never
// grows and one with larger bursts pays one write per burst again from its
// next burst on. Buffers never shrink.
//
// R and W are replaced when they grow: read them from the ConnBuffers at
// each use, never keep them across Flush or EndRead.
type ConnBuffers struct {
	R *bufio.Reader
	W *bufio.Writer
	c countingConn
}

// countingConn counts the bytes the buffers move through the connection
// since the last boundary of each direction.
type countingConn struct {
	rw      io.ReadWriter
	in, out int
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.in += n
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.out += n
	return n, err
}

// NewConnBuffers returns 4 KiB buffers over rw.
func NewConnBuffers(rw io.ReadWriter) *ConnBuffers {
	b := &ConnBuffers{c: countingConn{rw: rw}}
	b.R = bufio.NewReaderSize(&b.c, minConnBuffer)
	b.W = bufio.NewWriterSize(&b.c, minConnBuffer)
	return b
}

// Reset points the buffers at a new connection, dropping whatever they hold.
// Their sizes are kept.
func (b *ConnBuffers) Reset(rw io.ReadWriter) {
	b.c = countingConn{rw: rw}
	b.R.Reset(&b.c)
	b.W.Reset(&b.c)
}

// Flush writes out what W holds and ends the outbound burst: W grows when
// the burst's bytes, including any W already wrote before filling up, did
// not fit in it.
func (b *ConnBuffers) Flush() error {
	burst := b.c.out + b.W.Buffered()
	if err := b.W.Flush(); err != nil {
		return err
	}
	b.c.out = 0
	if size := grownSize(b.W.Size(), burst); size != b.W.Size() {
		b.W = bufio.NewWriterSize(&b.c, size)
	}
	return nil
}

// EndRead ends the inbound burst once R holds no byte past it, and does
// nothing while R still does: R grows when the burst's bytes did not fit in
// it.
func (b *ConnBuffers) EndRead() {
	if b.R.Buffered() != 0 {
		return
	}
	burst := b.c.in
	b.c.in = 0
	if size := grownSize(b.R.Size(), burst); size != b.R.Size() {
		b.R = bufio.NewReaderSize(&b.c, size)
	}
}

// grownSize is the size a size-byte buffer takes after a burst of n bytes:
// size when the burst fit, else the next power of two at or above n, at
// most maxConnBuffer.
func grownSize(size, n int) int {
	if n <= size || size >= maxConnBuffer {
		return size
	}
	return min(1<<bits.Len(uint(n-1)), maxConnBuffer)
}
