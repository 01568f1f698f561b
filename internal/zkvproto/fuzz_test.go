package zkvproto

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"
)

// FuzzFraming feeds arbitrary bytes to the request decoder. Whatever comes
// in, the decoder must not panic, must not hand back frames that violate its
// own documented invariants, and any frame it accepts must survive a
// re-encode/re-decode round trip byte-for-byte.
func FuzzFraming(f *testing.F) {
	seed := func(op byte, key, val []byte) {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		req := Request{Op: op, Key: key, Val: val}
		if err := req.WriteTo(bw); err == nil {
			bw.Flush()
			f.Add(buf.Bytes())
		}
	}
	seed(OpGet, []byte("key"), nil)
	seed(OpSet, []byte("key"), []byte("value"))
	seed(OpDel, []byte("key"), nil)
	seed(OpPing, nil, nil)
	seed(OpStats, nil, nil)
	f.Add([]byte{})
	f.Add([]byte{OpGet})
	f.Add([]byte{OpSet, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A whole frame, then a header that stops after its key length.
	f.Add([]byte{OpGet, 0, 1, 0, 0, 0, 0, 'k', OpSet, 0, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		// The same bytes with every header split across reads must decode
		// to the same frames and end on the same error.
		split := oneByteReader(data)
		var req, sreq Request
		for {
			err := req.ReadFrom(br)
			serr := sreq.ReadFrom(split)
			if (err == nil) != (serr == nil) || err != nil && err.Error() != serr.Error() {
				t.Fatalf("whole reads gave %v, one-byte reads %v", err, serr)
			}
			if err == nil && (sreq.Op != req.Op || !bytes.Equal(sreq.Key, req.Key) || !bytes.Equal(sreq.Val, req.Val)) {
				t.Fatalf("one-byte reads changed frame: %v vs %v", req, sreq)
			}
			if err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				// Any other error must be a typed protocol error,
				// and decoding stops there.
				return
			}
			if !validOp(req.Op) {
				t.Fatalf("decoder accepted invalid op %d", req.Op)
			}
			if len(req.Key) > MaxKeyLen || len(req.Val) > MaxValLen {
				t.Fatalf("decoder accepted oversize frame: key=%d val=%d", len(req.Key), len(req.Val))
			}
			switch req.Op {
			case OpGet, OpDel:
				if len(req.Key) == 0 || len(req.Val) != 0 {
					t.Fatalf("decoder accepted bad GET/DEL shape: key=%d val=%d", len(req.Key), len(req.Val))
				}
			case OpStats, OpPing:
				if len(req.Key) != 0 || len(req.Val) != 0 {
					t.Fatalf("decoder accepted STATS/PING with payload")
				}
			}
			// Round trip: re-encode and re-decode must reproduce the frame.
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := req.WriteTo(bw); err != nil {
				t.Fatalf("accepted frame failed to encode: %v", err)
			}
			bw.Flush()
			var again Request
			if err := again.ReadFrom(bufio.NewReader(&buf)); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			if again.Op != req.Op || !bytes.Equal(again.Key, req.Key) || !bytes.Equal(again.Val, req.Val) {
				t.Fatalf("round trip changed frame: %v vs %v", req, again)
			}
		}
	})
}

// scriptedConn is a net.Conn whose read side replays a fixed byte script —
// an adversarial server — and whose write side discards everything.
type scriptedConn struct{ r *bytes.Reader }

func (c *scriptedConn) Read(p []byte) (int, error)       { return c.r.Read(p) }
func (c *scriptedConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptedConn) Close() error                     { return nil }
func (c *scriptedConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *scriptedConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzClientRead points the full client at a server that answers with
// arbitrary bytes. Whatever comes back, the client must not panic, must
// never surface a value that violates the protocol limits, and every error
// it returns must land in a defined error class — an unclassifiable error
// means a caller cannot decide whether a retry is safe.
func FuzzClientRead(f *testing.F) {
	respond := func(status byte, val []byte) []byte {
		b := make([]byte, 5+len(val))
		b[0] = status
		binary.BigEndian.PutUint32(b[1:5], uint32(len(val)))
		copy(b[5:], val)
		return b
	}
	f.Add(respond(StatusOK, []byte("value")))
	f.Add(respond(StatusNotFound, nil))
	f.Add(respond(StatusErr, []byte("server error: boom")))
	f.Add(respond(StatusBusy, nil))
	f.Add(respond(99, nil))                         // invalid status
	f.Add([]byte{StatusOK, 0xff, 0xff, 0xff, 0xff}) // 4GB length prefix
	f.Add([]byte{StatusOK, 0x00})                   // truncated header
	f.Add(bytes.Repeat(respond(StatusOK, nil), 4))  // several frames
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		cl := NewClient(&scriptedConn{bytes.NewReader(data)})
		// Walk every convenience path until the script breaks the
		// connection; each call consumes at most a few frames.
		for i := 0; i < 8; i++ {
			var err error
			switch i % 4 {
			case 0:
				var val []byte
				var ok bool
				val, ok, err = cl.Get([]byte("k"), nil)
				if err == nil && ok && len(val) > MaxValLen {
					t.Fatalf("client accepted %d-byte value", len(val))
				}
			case 1:
				err = cl.Set([]byte("k"), []byte("v"))
			case 2:
				err = cl.Ping()
			case 3:
				var stats string
				stats, err = cl.Stats()
				if err == nil && len(stats) > MaxValLen {
					t.Fatalf("client accepted %d-byte stats", len(stats))
				}
			}
			if err == nil {
				continue
			}
			switch Classify(err) {
			case ClassNone, ClassUnknown:
				t.Fatalf("unclassifiable client error: %v", err)
			}
			// The scripted conn is not reconnectable, so after the first
			// transport failure every later call fails fast; that path is
			// covered by the next loop iterations.
		}
	})
}
