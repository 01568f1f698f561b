package zkvproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"
)

// Options tunes a Client. The zero Options arms no deadline.
type Options struct {
	// OpTimeout bounds each one-shot round trip (Get/Set/Del/Ping/Stats/
	// Migrate/Forget): queue, flush, and reply must all complete within it.
	// 0 means no deadline. The deadline is armed on the connection per
	// operation; manual pipeliners using Queue*/Flush/ReadReply should
	// arm their own via SetDeadline.
	OpTimeout time.Duration
}

// dial connects to addr within 5 s: the bound of Dial and every Reconnect.
func dial(addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: 5 * time.Second}
	return d.Dial("tcp", addr)
}

// errBroken is the cause of the reset-class error a one-shot op returns on
// a connection an earlier failure broke: nothing is sent until Reconnect.
var errBroken = errors.New("connection broken by an earlier failure; Reconnect first")

// Client is one pipelined connection to a zcached server. Queue* methods
// buffer request frames without touching the network; Flush pushes them
// out, and ReadReply consumes responses in request order. The one-shot
// Get/Set/Del/Ping/Stats/Migrate/Forget each send their request exactly
// once and classify any failure; resending is the caller's decision.
//
// A Client is not safe for concurrent use; run one per goroutine.
type Client struct {
	conn    net.Conn
	bufs    *ConnBuffers
	req     Request
	resp    Response
	pending int

	addr   string // dial address; "" = wrapped conn, not reconnectable
	opts   Options
	broken bool // transport failed mid-stream; Reconnect before reuse
}

// Dial connects to a zcached server with zero Options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a zcached server with explicit options. The
// returned client can Reconnect to addr when its connection breaks.
func DialOptions(addr string, opts Options) (*Client, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	c := NewClient(conn)
	c.addr = addr
	c.opts = opts
	return c, nil
}

// NewClient wraps an established connection. A wrapped client cannot
// reconnect (it does not know an address); use DialOptions for that.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, bufs: NewConnBuffers(conn)}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Pending reports how many queued requests still await a reply.
func (c *Client) Pending() int { return c.pending }

// SetDeadline arms a read+write deadline on the underlying connection, for
// manual pipeliners that bound whole bursts rather than single ops.
func (c *Client) SetDeadline(t time.Time) error { return c.conn.SetDeadline(t) }

// Reconnect closes the current connection and dials the original address
// again, resetting all pipeline state (pending replies are abandoned).
func (c *Client) Reconnect() error {
	if c.addr == "" {
		return fmt.Errorf("zkvproto: client wraps a raw conn; no address to reconnect")
	}
	c.conn.Close()
	conn, err := dial(c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.bufs.Reset(conn)
	c.pending = 0
	c.broken = false
	return nil
}

// Queue buffers one request frame without flushing.
func (c *Client) Queue(op byte, key, val []byte) error {
	c.req.Op, c.req.Key, c.req.Val = op, key, val
	if err := c.req.WriteTo(c.bufs.W); err != nil {
		return err
	}
	c.pending++
	return nil
}

// QueueGet buffers a GET without flushing.
func (c *Client) QueueGet(key []byte) error { return c.Queue(OpGet, key, nil) }

// QueueSet buffers a SET without flushing.
func (c *Client) QueueSet(key, val []byte) error { return c.Queue(OpSet, key, val) }

// Flush writes all buffered requests to the connection. It ends a burst:
// the write buffer grows when the burst outgrew it (see ConnBuffers).
func (c *Client) Flush() error { return c.bufs.Flush() }

// ReadReply reads the next in-order response. The returned Response's Val
// aliases an internal buffer valid until the next ReadReply. The last
// pending reply ends a burst: the read buffer grows when the burst's
// replies outgrew it (see ConnBuffers).
func (c *Client) ReadReply() (*Response, error) {
	if c.pending == 0 {
		return nil, fmt.Errorf("zkvproto: ReadReply with no pending requests")
	}
	if err := c.resp.ReadFrom(c.bufs.R); err != nil {
		return nil, err
	}
	if c.pending--; c.pending == 0 {
		c.bufs.EndRead()
	}
	return &c.resp, nil
}

// do sends one request exactly once and reads its reply. It returns the
// reply (never StatusBusy) or an *OpError: busy for a shed reply, ambiguous
// for a SET/DEL whose connection failed after its frame was written, and
// the transport's class otherwise. A transport failure breaks the client:
// every later op fails fast with a reset until Reconnect.
func (c *Client) do(opName string, op byte, key, val []byte) (*Response, error) {
	if c.broken {
		return nil, &OpError{Op: opName, Class: ClassReset, Err: errBroken}
	}
	if c.pending != 0 {
		return nil, &OpError{Op: opName, Class: ClassProtocol,
			Err: fmt.Errorf("%d pipelined replies outstanding; drain ReadReply first", c.pending)}
	}
	if c.opts.OpTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout)); err != nil {
			c.broken = true
			return nil, &OpError{Op: opName, Class: Classify(err), Err: err}
		}
	}
	err := c.Queue(op, key, val)
	if errors.Is(err, ErrBadOp) || errors.Is(err, ErrFrameTooLarge) {
		// Frame validation: nothing was buffered or sent.
		return nil, &OpError{Op: opName, Class: Classify(err), Err: err}
	}
	if err == nil {
		err = c.Flush()
	}
	var resp *Response
	if err == nil {
		resp, err = c.ReadReply()
	}
	switch {
	case err != nil:
		c.broken = true
		if op == OpSet || op == OpDel {
			return nil, &OpError{Op: opName, Class: ClassAmbiguous,
				Err: fmt.Errorf("%w: %v", ErrAmbiguous, err)}
		}
		return nil, &OpError{Op: opName, Class: Classify(err), Err: err}
	case resp.Status == StatusBusy:
		// Shed, not executed: resending is safe for every op.
		return nil, &OpError{Op: opName, Class: ClassBusy, Err: ErrBusy}
	}
	return resp, nil
}

// Get does one GET round trip, appending the value to dst.
func (c *Client) Get(key, dst []byte) ([]byte, bool, error) {
	resp, err := c.do("GET", OpGet, key, nil)
	if err != nil {
		return dst, false, err
	}
	switch resp.Status {
	case StatusOK:
		return append(dst, resp.Val...), true, nil
	case StatusNotFound:
		return dst, false, nil
	default:
		return dst, false, serverErr("GET", resp)
	}
}

// Set does one SET round trip.
func (c *Client) Set(key, val []byte) error {
	resp, err := c.do("SET", OpSet, key, val)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return serverErr("SET", resp)
	}
	return nil
}

// Del does one DEL round trip; ok reports whether the key was resident.
func (c *Client) Del(key []byte) (bool, error) {
	resp, err := c.do("DEL", OpDel, key, nil)
	if err != nil {
		return false, err
	}
	switch resp.Status {
	case StatusOK:
		return true, nil
	case StatusNotFound:
		return false, nil
	default:
		return false, serverErr("DEL", resp)
	}
}

// Ping does one PING round trip.
func (c *Client) Ping() error {
	resp, err := c.do("PING", OpPing, nil, nil)
	if err != nil {
		return err
	}
	if resp.Status != StatusOK {
		return serverErr("PING", resp)
	}
	return nil
}

// Stats does one STATS round trip and returns the metrics text.
func (c *Client) Stats() (string, error) {
	resp, err := c.do("STATS", OpStats, nil, nil)
	if err != nil {
		return "", err
	}
	if resp.Status != StatusOK {
		return "", serverErr("STATS", resp)
	}
	return string(resp.Val), nil
}

// Migrate requests one page of the resharding scan over the arc
// (start, end] in ring-point space. It returns the cursor for the next page
// (0 = scan complete) and the page's entries (copies, caller-owned).
func (c *Client) Migrate(req MigrateReq) (next uint64, entries []MigrateEntry, err error) {
	key := AppendMigrateReq(nil, req)
	resp, err := c.do("MIGRATE", OpMigrate, key, nil)
	if err != nil {
		return 0, nil, err
	}
	if resp.Status != StatusOK {
		return 0, nil, serverErr("MIGRATE", resp)
	}
	return DecodeMigratePage(resp.Val)
}

// Forget drops every resident entry in the arc (start, end] on the server,
// returning how many were dropped.
func (c *Client) Forget(req ForgetReq) (dropped uint64, err error) {
	key := AppendForgetReq(nil, req)
	resp, err := c.do("FORGET", OpForget, key, nil)
	if err != nil {
		return 0, err
	}
	if resp.Status != StatusOK {
		return 0, serverErr("FORGET", resp)
	}
	if len(resp.Val) != 8 {
		return 0, &OpError{Op: "FORGET", Class: ClassProtocol,
			Err: fmt.Errorf("%w: FORGET reply %d bytes", ErrBadFrame, len(resp.Val))}
	}
	return binary.BigEndian.Uint64(resp.Val), nil
}

// serverErr wraps a StatusErr reply as a protocol-class OpError.
func serverErr(op string, resp *Response) error {
	return &OpError{Op: op, Class: ClassProtocol,
		Err: fmt.Errorf("server error: %s", resp.Val)}
}
