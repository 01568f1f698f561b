package zkvproto

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// oneByteReader delivers wire one byte per read through the smallest buffer
// bufio allows, so every header arrives split across reads and the buffer
// wraps inside frames.
func oneByteReader(wire []byte) *bufio.Reader {
	return bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(wire)), 16)
}

// wireOf returns the bytes one WriteTo puts on the wire.
func wireOf(t *testing.T, writeTo func(*bufio.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeTo(bw); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func roundTripRequest(t *testing.T, op byte, key, val []byte) Request {
	t.Helper()
	out := Request{Op: op, Key: key, Val: val}
	wire := wireOf(t, out.WriteTo)
	var in, split Request
	if err := in.ReadFrom(bufio.NewReader(bytes.NewReader(wire))); err != nil {
		t.Fatal(err)
	}
	if err := split.ReadFrom(oneByteReader(wire)); err != nil {
		t.Fatal(err)
	}
	if split.Op != in.Op || !bytes.Equal(split.Key, in.Key) || !bytes.Equal(split.Val, in.Val) {
		t.Fatalf("op %d decoded differently one byte at a time: %v vs %v", op, split, in)
	}
	return in
}

func TestRequestRoundTrip(t *testing.T) {
	cases := []struct {
		op       byte
		key, val string
	}{
		{OpGet, "k", ""},
		{OpSet, "key", "value"},
		{OpSet, "key", ""},
		{OpDel, "gone", ""},
		{OpStats, "", ""},
		{OpPing, "", ""},
	}
	for _, c := range cases {
		got := roundTripRequest(t, c.op, []byte(c.key), []byte(c.val))
		if got.Op != c.op || string(got.Key) != c.key || string(got.Val) != c.val {
			t.Errorf("round trip op %d: got op=%d key=%q val=%q", c.op, got.Op, got.Key, got.Val)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for _, c := range []struct {
		status byte
		val    string
	}{
		{StatusOK, "payload"},
		{StatusOK, ""},
		{StatusNotFound, ""},
		{StatusErr, "bad things"},
	} {
		out := Response{Status: c.status, Val: []byte(c.val)}
		wire := wireOf(t, out.WriteTo)
		for _, br := range []*bufio.Reader{bufio.NewReader(bytes.NewReader(wire)), oneByteReader(wire)} {
			var in Response
			if err := in.ReadFrom(br); err != nil {
				t.Fatal(err)
			}
			if in.Status != c.status || string(in.Val) != c.val {
				t.Errorf("status %d: got status=%d val=%q", c.status, in.Status, in.Val)
			}
		}
	}
}

// TestTruncatedFrames cuts a GET, a SET and a response frame at every offset:
// a stream that ends before a frame's first byte is a clean end (bare
// io.EOF, which callers compare with ==), one that ends anywhere inside the
// frame is io.ErrUnexpectedEOF — however the bytes were split into reads.
func TestTruncatedFrames(t *testing.T) {
	get := Request{Op: OpGet, Key: []byte("key")}
	set := Request{Op: OpSet, Key: []byte("key"), Val: []byte("value")}
	resp := Response{Status: StatusOK, Val: []byte("value")}
	var req Request
	for _, c := range []struct {
		name   string
		wire   []byte
		decode func(*bufio.Reader) error
	}{
		{"GET", wireOf(t, get.WriteTo), req.ReadFrom},
		{"SET", wireOf(t, set.WriteTo), req.ReadFrom},
		{"response", wireOf(t, resp.WriteTo), resp.ReadFrom},
	} {
		for cut := 0; cut < len(c.wire); cut++ {
			want := io.ErrUnexpectedEOF
			if cut == 0 {
				want = io.EOF
			}
			for _, br := range []*bufio.Reader{bufio.NewReader(bytes.NewReader(c.wire[:cut])), oneByteReader(c.wire[:cut])} {
				if err := c.decode(br); err != want {
					t.Errorf("%s cut at %d of %d: got %v, want %v", c.name, cut, len(c.wire), err, want)
				}
			}
		}
	}
}

// TestCodecDoesNotAllocate pins all four directions at zero allocations per
// frame once the reusable buffers are sized. The 32-byte bufio buffers make
// headers straddle refills and flushes, and the SET's value take bufio's
// direct path, so the slow branches are held to it too.
func TestCodecDoesNotAllocate(t *testing.T) {
	reqs := []Request{
		{Op: OpGet, Key: []byte("key")},
		{Op: OpSet, Key: []byte("key"), Val: bytes.Repeat([]byte{'v'}, 64)},
	}
	resps := []Response{
		{Status: StatusOK, Val: bytes.Repeat([]byte{'v'}, 64)},
		{Status: StatusNotFound},
	}
	var reqWire, respWire bytes.Buffer
	bw := bufio.NewWriterSize(&reqWire, 32)
	for i := range reqs {
		reqs[i].WriteTo(bw)
	}
	bw.Flush()
	bw.Reset(&respWire)
	for i := range resps {
		resps[i].WriteTo(bw)
	}
	bw.Flush()

	var (
		rd  bytes.Reader
		br  = bufio.NewReaderSize(&rd, 32)
		in  Request
		rin Response
		err error
	)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Request.WriteTo", func() {
			bw.Reset(io.Discard)
			for i := range reqs {
				err = reqs[i].WriteTo(bw)
			}
		}},
		{"Response.WriteTo", func() {
			bw.Reset(io.Discard)
			for i := range resps {
				err = resps[i].WriteTo(bw)
			}
		}},
		{"Request.ReadFrom", func() {
			rd.Reset(reqWire.Bytes())
			br.Reset(&rd)
			for range reqs {
				err = in.ReadFrom(br)
			}
		}},
		{"Response.ReadFrom", func() {
			rd.Reset(respWire.Bytes())
			br.Reset(&rd)
			for range resps {
				err = rin.ReadFrom(br)
			}
		}},
	} {
		c.run() // size the reusable buffers
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(100, c.run); allocs != 0 {
			t.Errorf("%s: %v allocs per %d frames, want 0", c.name, allocs, len(reqs))
		}
	}
}

func TestPipelinedFrames(t *testing.T) {
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for i := 0; i < 100; i++ {
		req := Request{Op: OpSet, Key: []byte{byte(i), 'k'}, Val: bytes.Repeat([]byte{byte(i)}, i)}
		if err := req.WriteTo(bw); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(&buf)
	var req Request
	for i := 0; i < 100; i++ {
		if err := req.ReadFrom(br); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if req.Key[0] != byte(i) || len(req.Val) != i {
			t.Fatalf("frame %d decoded wrong: key=%v valLen=%d", i, req.Key, len(req.Val))
		}
	}
	if err := req.ReadFrom(br); err != io.EOF {
		t.Fatalf("want clean EOF after last frame, got %v", err)
	}
}

func TestRejectsMalformedFrames(t *testing.T) {
	cases := []struct {
		name  string
		raw   []byte
		under error
	}{
		{"bad opcode", []byte{99, 0, 0, 0, 0, 0, 0}, ErrBadOp},
		{"zero opcode", []byte{0, 0, 0, 0, 0, 0, 0}, ErrBadOp},
		{"get with value", []byte{OpGet, 0, 1, 0, 0, 0, 1, 'k', 'v'}, ErrBadFrame},
		{"get empty key", []byte{OpGet, 0, 0, 0, 0, 0, 0}, ErrBadFrame},
		{"set empty key", []byte{OpSet, 0, 0, 0, 0, 0, 1, 'v'}, ErrBadFrame},
		{"ping with key", []byte{OpPing, 0, 1, 0, 0, 0, 0, 'k'}, ErrBadFrame},
		{"oversized value", []byte{OpSet, 0, 1, 0xff, 0xff, 0xff, 0xff, 'k'}, ErrFrameTooLarge},
		{"truncated header", []byte{OpGet, 0}, io.ErrUnexpectedEOF},
		{"truncated body", []byte{OpGet, 0, 5, 0, 0, 0, 0, 'k'}, io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		var req Request
		err := req.ReadFrom(bufio.NewReader(bytes.NewReader(c.raw)))
		if !errors.Is(err, c.under) {
			t.Errorf("%s: got %v, want %v", c.name, err, c.under)
		}
	}
}

func TestWriteRejectsOversize(t *testing.T) {
	bw := bufio.NewWriter(io.Discard)
	req := Request{Op: OpSet, Key: []byte(strings.Repeat("k", MaxKeyLen+1)), Val: nil}
	if err := req.WriteTo(bw); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized key: got %v", err)
	}
	req = Request{Op: 42, Key: []byte("k")}
	if err := req.WriteTo(bw); !errors.Is(err, ErrBadOp) {
		t.Fatalf("bad op: got %v", err)
	}
}

func TestResponseRejectsBadStatus(t *testing.T) {
	raw := []byte{7, 0, 0, 0, 0}
	var resp Response
	if err := resp.ReadFrom(bufio.NewReader(bytes.NewReader(raw))); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad status: got %v", err)
	}
}

func TestBufferReuseDoesNotAlias(t *testing.T) {
	// Two sequential frames through one Request must not leak bytes of
	// the first into the second.
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	a := Request{Op: OpSet, Key: []byte("long-key-one"), Val: []byte("long-value-one")}
	b := Request{Op: OpSet, Key: []byte("k2"), Val: []byte("v2")}
	if err := a.WriteTo(bw); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteTo(bw); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	br := bufio.NewReader(&buf)
	var in Request
	if err := in.ReadFrom(br); err != nil {
		t.Fatal(err)
	}
	if err := in.ReadFrom(br); err != nil {
		t.Fatal(err)
	}
	if string(in.Key) != "k2" || string(in.Val) != "v2" {
		t.Fatalf("buffer reuse corrupted frame: key=%q val=%q", in.Key, in.Val)
	}
}
