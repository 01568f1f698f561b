package zkvproto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"zcache/internal/hash"
)

// Options tunes a Client's robustness behavior. The zero Options is the
// legacy configuration: no deadlines, no retries, no backoff — exactly what
// NewClient over a raw connection has always done.
type Options struct {
	// OpTimeout bounds each convenience-method round trip (Get/Set/Del/
	// Ping/Stats): queue, flush, and reply must all complete within it.
	// 0 means no deadline. The deadline is armed on the connection per
	// operation; manual pipeliners using Queue*/Flush/ReadReply should
	// arm their own via SetDeadline.
	OpTimeout time.Duration
	// DialTimeout bounds Dial and every Reconnect attempt (default 5s).
	DialTimeout time.Duration
	// MaxRetries is how many times a convenience operation is retried
	// after a retryable failure, reconnecting as needed. Idempotent
	// operations (GET/PING/STATS) retry on timeout/reset/busy; mutations
	// (SET/DEL) retry only on busy — a shed request was never executed —
	// and surface ErrAmbiguous when the connection dies mid-operation.
	// 0 means no retries.
	MaxRetries int
	// BackoffBase and BackoffMax shape the jittered exponential backoff
	// between retries: attempt n sleeps BackoffBase<<(n-1) capped at
	// BackoffMax, scaled by a jitter factor in [0.5, 1.5). Defaults 2ms
	// and 250ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed makes the jitter schedule deterministic: the same seed and the
	// same retry sequence sleep the same durations, in the spirit of
	// internal/failpoint's reproducible fault schedules.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 2 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 250 * time.Millisecond
	}
	return o
}

// Client is a pipelining zcached client. Queue* methods buffer request
// frames without touching the network; Flush pushes them out, and ReadReply
// consumes responses in request order. The convenience Get/Set/Del helpers
// do one round trip each, and — when Options enable it — classify failures,
// arm per-op deadlines, reconnect, and retry where the retry is safe.
//
// A Client is not safe for concurrent use; run one per goroutine.
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	req     Request
	resp    Response
	pending int

	addr   string // dial address; "" = wrapped conn, not reconnectable
	opts   Options
	broken bool // transport failed mid-stream; reconnect before reuse

	nBackoff   uint64 // jitter draws so far (determinism counter)
	retries    uint64
	reconnects uint64
}

// Dial connects to a zcached server with zero Options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a zcached server with explicit robustness
// options. The returned client reconnects to addr when its connection
// breaks.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts = opts.withDefaults()
	d := net.Dialer{Timeout: opts.DialTimeout}
	conn, err := d.Dial("tcp", addr)
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
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
		opts: Options{}.withDefaults(),
	}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

// Pending reports how many queued requests still await a reply.
func (c *Client) Pending() int { return c.pending }

// Retries reports how many operation retries this client has performed.
func (c *Client) Retries() uint64 { return c.retries }

// Reconnects reports how many times this client has re-dialed.
func (c *Client) Reconnects() uint64 { return c.reconnects }

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
	d := net.Dialer{Timeout: c.opts.DialTimeout}
	conn, err := d.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.conn = conn
	c.br.Reset(conn)
	c.bw.Reset(conn)
	c.pending = 0
	c.broken = false
	c.reconnects++
	return nil
}

// Backoff is the serving path's one retry pause: base<<exp capped at limit,
// scaled by a jitter factor in [0.5, 1.5) that is a pure function of
// (seed, draw). The client's retries and the load harness's redials both
// sleep by it, so a seeded run's whole retry schedule is reproducible.
func Backoff(seed, draw uint64, exp int, base, limit time.Duration) time.Duration {
	d := limit
	if exp < 20 { // beyond 1<<20 the cap always wins
		if e := base << exp; e < d {
			d = e
		}
	}
	frac := float64(hash.Mix64(seed^(draw+1)*0x9e3779b97f4a7c15)>>11) / float64(uint64(1)<<53) // [0,1)
	return time.Duration((0.5 + frac) * float64(d))
}

// backoffDelay is the pause before retry attempt n (1-based): exponential
// in n, capped, with deterministic jitter drawn from (Seed, draw index).
func (c *Client) backoffDelay(attempt int) time.Duration {
	c.nBackoff++
	return Backoff(c.opts.Seed, c.nBackoff-1, attempt-1, c.opts.BackoffBase, c.opts.BackoffMax)
}

// Queue buffers one request frame without flushing.
func (c *Client) Queue(op byte, key, val []byte) error {
	c.req.Op, c.req.Key, c.req.Val = op, key, val
	if err := c.req.WriteTo(c.bw); err != nil {
		return err
	}
	c.pending++
	return nil
}

// QueueGet buffers a GET without flushing.
func (c *Client) QueueGet(key []byte) error { return c.Queue(OpGet, key, nil) }

// QueueSet buffers a SET without flushing.
func (c *Client) QueueSet(key, val []byte) error { return c.Queue(OpSet, key, val) }

// QueueDel buffers a DEL without flushing.
func (c *Client) QueueDel(key []byte) error { return c.Queue(OpDel, key, nil) }

// Flush writes all buffered requests to the connection.
func (c *Client) Flush() error { return c.bw.Flush() }

// ReadReply reads the next in-order response. The returned Response's Val
// aliases an internal buffer valid until the next ReadReply.
func (c *Client) ReadReply() (*Response, error) {
	if c.pending == 0 {
		return nil, fmt.Errorf("zkvproto: ReadReply with no pending requests")
	}
	if err := c.resp.ReadFrom(c.br); err != nil {
		return nil, err
	}
	c.pending--
	return &c.resp, nil
}

// once performs one queue+flush+read round trip. sent reports whether any
// request bytes may have reached the network (and therefore whether a
// failed mutation is ambiguous).
func (c *Client) once(op byte, key, val []byte) (resp *Response, sent bool, err error) {
	if c.opts.OpTimeout > 0 {
		if err := c.conn.SetDeadline(time.Now().Add(c.opts.OpTimeout)); err != nil {
			return nil, true, err
		}
	}
	if err := c.Queue(op, key, val); err != nil {
		// WriteTo fails either on frame validation (nothing buffered,
		// nothing sent) or on a write-through to a dead socket.
		validation := errors.Is(err, ErrBadOp) || errors.Is(err, ErrFrameTooLarge)
		return nil, !validation, err
	}
	if err := c.Flush(); err != nil {
		return nil, true, err
	}
	r, err := c.ReadReply()
	if err != nil {
		return nil, true, err
	}
	return r, true, nil
}

// do runs one operation under the retry policy. It returns the terminal
// response (never StatusBusy) or an *OpError.
func (c *Client) do(opName string, op byte, key, val []byte) (*Response, error) {
	if c.broken {
		if c.addr == "" {
			return nil, &OpError{Op: opName, Class: ClassReset,
				Err: errors.New("connection broken and not reconnectable")}
		}
		if err := c.Reconnect(); err != nil {
			return nil, &OpError{Op: opName, Class: Classify(err), Err: err}
		}
	}
	if c.pending != 0 {
		return nil, &OpError{Op: opName, Class: ClassProtocol,
			Err: fmt.Errorf("%d pipelined replies outstanding; drain ReadReply first", c.pending)}
	}
	// MIGRATE is a read; FORGET drops an arc, and dropping an already-
	// dropped arc is a no-op — both retry safely.
	idempotent := op == OpGet || op == OpPing || op == OpStats ||
		op == OpMigrate || op == OpForget
	var lastErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > c.opts.MaxRetries {
				return nil, lastErr
			}
			c.retries++
			time.Sleep(c.backoffDelay(attempt))
			if c.broken {
				if err := c.Reconnect(); err != nil {
					lastErr = &OpError{Op: opName, Class: Classify(err), Err: err}
					continue
				}
			}
		}
		resp, sent, err := c.once(op, key, val)
		if err == nil {
			if resp.Status == StatusBusy {
				// Shed, not executed: retrying is safe for every op.
				lastErr = &OpError{Op: opName, Class: ClassBusy, Err: ErrBusy}
				continue
			}
			return resp, nil
		}
		class := Classify(err)
		if !sent {
			// Frame validation failure: the request never existed on the
			// wire, and retrying the same frame cannot succeed.
			return nil, &OpError{Op: opName, Class: class, Err: err}
		}
		c.broken = true
		if !idempotent {
			return nil, &OpError{Op: opName, Class: ClassAmbiguous,
				Err: fmt.Errorf("%w: %v", ErrAmbiguous, err)}
		}
		lastErr = &OpError{Op: opName, Class: class, Err: err}
	}
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
