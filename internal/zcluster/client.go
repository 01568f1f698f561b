package zcluster

import (
	"errors"
	"fmt"
	"time"

	"zcache/internal/hash"
	"zcache/internal/zkvproto"
)

// Config describes one cluster client's view of the deployment.
type Config struct {
	// Nodes is the initial membership: node names, which double as dial
	// addresses unless DialAddr overrides them. Ignored when Router is set.
	Nodes []string
	// Router, when non-nil, is a shared routing cell: every client (and the
	// resharding controller) pointed at the same Router sees topology flips
	// atomically. Nil means this client builds a private router from Nodes.
	Router *Router
	// VNodes is the virtual-node count per server (DefaultVNodes when 0).
	VNodes int
	// Replication is the copy count: 1 (default) routes each key to its
	// primary only; 2 fans writes out to the primary's replica and lets
	// reads fail over and read-repair. Other values are rejected.
	Replication int
	// RepairEvery samples 1 in N primary GET hits for a replica
	// cross-check, repairing whichever side is stale (0 disables). The
	// steady-state repair path; misses and failovers always check.
	RepairEvery int
	// DialAddr maps a node name to the address actually dialed — the hook
	// chaos tests use to put a netchaos proxy in front of one node without
	// renaming it in the ring.
	DialAddr map[string]string
	// Options tunes every per-node connection. OpTimeout is the deadline of
	// one round of a batch and of each of AddNode's and Health's verbs
	// (0 = none: a blackholed node then hangs the client instead of failing
	// classified).
	Options zkvproto.Options
	// Seed makes the redial pauses' jitter deterministic. Each node's
	// schedule derives from Seed and the node name, so schedules stay
	// reproducible but decorrelated across nodes.
	Seed uint64
	// StampBase offsets this client's version counter. Version stamps
	// order writes from one client; concurrent writers get a total order
	// only if their StampBase ranges are disjoint (e.g. client i shifts
	// i<<40). The zero base is fine for a single writer.
	StampBase uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Replication == 0 {
		c.Replication = 1
	}
	if c.Replication != 1 && c.Replication != 2 {
		return c, fmt.Errorf("zcluster: replication %d unsupported (want 1 or 2)", c.Replication)
	}
	if c.RepairEvery < 0 {
		return c, fmt.Errorf("zcluster: negative repair sample rate %d", c.RepairEvery)
	}
	if c.Router == nil && len(c.Nodes) == 0 {
		return c, fmt.Errorf("zcluster: config needs Nodes or a Router")
	}
	return c, nil
}

// Stats counts the cluster client's replication-layer and transport events.
// All zeros but ReplicaSets in a healthy, converged cluster.
type Stats struct {
	// Failovers counts reads served by the replica because the primary's
	// transport failed.
	Failovers uint64
	// Repairs counts read-repair writes: a stale or missing copy rewritten
	// with the newer version (either direction).
	Repairs uint64
	// ReplicaErrors counts replica-side operations that failed and were
	// absorbed (replica writes are best-effort; the primary is the
	// operation's truth).
	ReplicaErrors uint64
	// ReplicaSets counts R=2 SET copies the replica acknowledged;
	// Reconnects, successful re-dials of a broken node connection.
	ReplicaSets, Reconnects uint64
	// Faults counts failure events by zkvproto.Class: a failed dial is one,
	// and so is a reset, however many queued operations it clips, or a shed
	// or failed verb of AddNode or Health.
	Faults [zkvproto.ClassUnknown + 1]uint64
}

// Client routes operations across a cluster of zcached nodes through a
// consistent-hash ring. It owns one pipelined connection per node, dialed
// on first use and kept in that order, and drives them in batches: Queue
// writes an operation's frames into its target nodes' buffers, Drain sends
// each buffer once and reads the nodes' replies in their fixed order, then
// runs the follow-up rounds the replies ask for (failover, read-repair,
// cross-check) until every operation is terminal. Get, Set and Del are
// batches of one.
//
// Nothing is replayed behind the caller's back: a shed (StatusBusy) or
// clipped operation comes back with its classified error, and re-issuing
// it is the caller's decision — the ErrAmbiguous contract for mutations.
//
// Like zkvproto.Client, a Client is not safe for concurrent use; run one
// per goroutine, sharing the Router.
type Client struct {
	cfg    Config
	router *Router
	peers  []*peer // first-use order: the flush and drain order
	byNode map[string]*peer
	next   uint64 // version counter; next stamp is next+1
	nHit   uint64 // primary-hit counter for RepairEvery sampling
	stats  Stats
	env    []byte // scratch for stamped envelopes

	ops    []batchOp // the batch in flight, in queue order
	arena  []byte    // sampled hits' envelopes, held for their cross-check
	queued bool      // some peer holds frames for the next round
}

// peer is the client's pipelined connection to one node.
type peer struct {
	node  string
	cl    *zkvproto.Client // nil until the first successful dial
	down  error            // why the connection is unusable; nil while it is live
	fails int              // failures in a row with no cleanly drained round between
	q, nq []frame          // frames awaiting replies this round, and the next round's
}

// frame is one request on a peer's wire and what its reply means to its op.
type frame struct {
	op   int32
	role uint8
	sent bool // written to a live connection: a mutation may have executed
}

const (
	rolePrimary  = iota // the operation itself, on the key's primary
	roleCopy            // R=2 SET/DEL on the replica: counted and absorbed
	roleFailover        // replica GET after the primary's transport failed
	roleMiss            // replica GET after a primary miss
	roleCheck           // replica GET cross-checking a sampled primary hit
	roleRepair          // newer envelope written over the older copy: absorbed
)

// batchOp is one queued operation's routing and follow-up state.
type batchOp struct {
	kind     byte
	pri, rep string // rep is "" when the operation has a single copy
	key, val []byte // for follow-ups: the caller's key, a sampled hit's envelope
	err      error  // the primary's failure, surfaced if the failover fails too
}

// Result is one batched operation's outcome, as Drain emits it.
type Result struct {
	Op int // the operation's index in the batch, as Queue returned it
	// Err is nil when a node answered with a terminal Status (OK, NotFound
	// or Err). Otherwise the operation was shed or clipped and Err carries
	// its zkvproto.Class: ClassBusy means it did not execute,
	// ClassAmbiguous that a mutation may have.
	Err    error
	Status byte
	// Val is a GET hit's payload (stamp stripped) or a StatusErr message.
	// It aliases a connection buffer: valid until emit returns.
	Val      []byte
	Node     string // the node whose reply decided the operation
	Failover bool   // a GET the replica served for a failed primary
}

// maxConsecutiveFailures bounds how long a client hammers a dead node: from
// then on the node's errors carry errUnreachable.
const maxConsecutiveFailures = 30

var (
	errUnreachable = errors.New("zcluster: node unreachable")
	errNotDialed   = errors.New("zcluster: node not dialed yet")
	opNames        = [...]string{zkvproto.OpGet: "GET", zkvproto.OpSet: "SET", zkvproto.OpDel: "DEL"}
)

// New builds a cluster client. With cfg.Router set the router is shared;
// otherwise a private one is built from cfg.Nodes.
func New(cfg Config) (*Client, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	router := cfg.Router
	if router == nil {
		ring, err := NewRing(cfg.Nodes, cfg.VNodes)
		if err != nil {
			return nil, err
		}
		router = NewRouter(ring)
	}
	return &Client{
		cfg:    cfg,
		router: router,
		byNode: make(map[string]*peer),
		next:   cfg.StampBase,
	}, nil
}

// Router returns the client's routing cell (shared or private).
func (c *Client) Router() *Router { return c.router }

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats { return c.stats }

// Close closes every per-node connection.
func (c *Client) Close() error {
	var first error
	for _, p := range c.peers {
		if p.cl == nil {
			continue
		}
		if err := p.cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// addrOf resolves a node name to its dial address.
func (c Config) addrOf(node string) string {
	if a, ok := c.DialAddr[node]; ok {
		return a
	}
	return node
}

// peer returns the node's connection state, created on first use.
func (c *Client) peer(node string) *peer {
	p, ok := c.byNode[node]
	if !ok {
		p = &peer{node: node, down: errNotDialed}
		c.byNode[node] = p
		c.peers = append(c.peers, p)
	}
	return p
}

// live reports whether p can take a frame. A down connection is re-dialed
// once every frame queued on it has been resolved (nothing buffered is
// lost), so a node that comes back comes back. Repeated failures back off
// first: without the pause, a shed-then-close from an exhausted server pool
// turns into a reconnect hammer that keeps the pool exhausted.
func (c *Client) live(p *peer) bool {
	if p.down == nil {
		return true
	}
	if len(p.q)+len(p.nq) > 0 {
		return false
	}
	if p.fails > 1 {
		// The client's jitter seed, decorrelated by node name.
		seed := hash.Mix64(c.cfg.Seed ^ hash.Bytes64([]byte(p.node)))
		time.Sleep(backoff(seed, uint64(p.fails), p.fails-1, 2*time.Millisecond, 300*time.Millisecond))
	}
	var err error
	if p.cl == nil {
		p.cl, err = zkvproto.DialOptions(c.cfg.addrOf(p.node), c.cfg.Options)
	} else if err = p.cl.Reconnect(); err == nil {
		c.stats.Reconnects++
	}
	if err != nil {
		c.fail(p, err)
		return false
	}
	p.down = nil
	return true
}

// backoff is the client's one redial pause: base<<exp capped at limit,
// scaled by a jitter factor in [0.5, 1.5) that is a pure function of
// (seed, draw). live sleeps by it, so a seeded run's whole redial schedule
// is reproducible.
func backoff(seed, draw uint64, exp int, base, limit time.Duration) time.Duration {
	d := limit
	if exp < 20 { // beyond 1<<20 the cap always wins
		if e := base << exp; e < d {
			d = e
		}
	}
	frac := float64(hash.Mix64(seed^(draw+1)*0x9e3779b97f4a7c15)>>11) / float64(uint64(1)<<53) // [0,1)
	return time.Duration((0.5 + frac) * float64(d))
}

// fail takes p down on a transport error: one fault event, whatever it clips.
func (c *Client) fail(p *peer, err error) {
	c.stats.Faults[zkvproto.Classify(err)]++
	if p.fails++; p.fails >= maxConsecutiveFailures {
		err = fmt.Errorf("%w: %s failed %d times in a row: %w", errUnreachable, p.node, p.fails, err)
	}
	p.down = err
}

// try sends one verb — a one-shot zkvproto call, or several on one
// connection — to p, between batches. Any failure takes p down, so its next
// use redials; a success resets p's failure count, as a cleanly drained
// round does.
func (c *Client) try(p *peer, verb func(*zkvproto.Client) error) error {
	if !c.live(p) {
		return p.down
	}
	if err := verb(p.cl); err != nil {
		c.fail(p, err)
		return err
	}
	p.fails = 0
	return nil
}

// call sends AddNode's verb to node until it succeeds: after a shed reply
// or a transport failure it sends again, once live has redialed (pausing by
// backoff from the second failure in a row). It gives up on a
// protocol error, or when the node is unreachable — the batch path's budget
// of maxConsecutiveFailures failures in a row. Resending is safe only
// because every verb AddNode sends is idempotent.
func (c *Client) call(node string, verb func(*zkvproto.Client) error) error {
	p := c.peer(node)
	for {
		err := c.try(p, verb)
		switch zkvproto.Classify(err) {
		case zkvproto.ClassNone:
			return nil
		case zkvproto.ClassProtocol, zkvproto.ClassUnknown:
			return err
		}
		if errors.Is(p.down, errUnreachable) {
			return p.down
		}
	}
}

// versionOf splits a stored envelope. A value too short to carry a stamp
// (written by a non-cluster client) reads as version 0 with the raw bytes
// as payload, so mixed deployments degrade to "cluster writes win".
func versionOf(v []byte) (uint64, []byte) {
	if ver, payload, ok := zkvproto.SplitStamped(v); ok {
		return ver, payload
	}
	return 0, v
}

// Queue adds one operation — kind is zkvproto.OpGet, OpSet or OpDel — to
// the batch being built and returns its index in it. The key is routed
// through the router's current ring and the request written into the
// primary's buffer now; a SET is stamped with the next version, and with
// R=2 a SET or DEL goes into the replica's buffer too, so both copies leave
// in one flush. val is not retained; key must not change before Drain returns.
func (c *Client) Queue(kind byte, key, val []byte) int {
	pri, rep := c.router.Ring().PrimaryReplica(PointOf(key))
	if c.cfg.Replication != 2 || rep == pri {
		rep = ""
	}
	i := len(c.ops)
	c.ops = append(c.ops, batchOp{kind: kind, pri: pri, rep: rep, key: key})
	if kind == zkvproto.OpSet {
		c.next++
		c.env = zkvproto.AppendStamped(c.env[:0], c.next, val)
		val = c.env
	}
	c.send(pri, i, rolePrimary, kind, key, val)
	if rep != "" && kind != zkvproto.OpGet {
		c.send(rep, i, roleCopy, kind, key, val)
	}
	return i
}

// send queues one frame of op on node's connection for the next round,
// arming the round's deadline with the connection's first frame. On a
// connection that is down — or that the codec's refusal of this frame takes
// down — the frame is only recorded, and the drain resolves it as failed.
func (c *Client) send(node string, op int, role uint8, kind byte, key, val []byte) {
	p := c.peer(node)
	f := frame{op: int32(op), role: role}
	if c.live(p) {
		if len(p.nq) == 0 && c.cfg.Options.OpTimeout > 0 {
			p.cl.SetDeadline(time.Now().Add(c.cfg.Options.OpTimeout))
		}
		err := p.cl.Queue(kind, key, val)
		if f.sent = err == nil; !f.sent {
			c.fail(p, err)
		}
	}
	p.nq = append(p.nq, f)
	c.queued = true
}

// Drain sends the batch and hands every operation to emit exactly once, as
// soon as a reply decides it. A round flushes each connection once and reads
// the replies node by node in the fixed order; rounds repeat while the
// replies queue follow-ups, so on return every absorbed reply (replica
// copies, repair writes) is drained too and the next batch may be queued.
// emit must not queue.
func (c *Client) Drain(emit func(Result)) {
	for c.queued {
		c.queued = false
		for _, p := range c.peers {
			p.q, p.nq = p.nq, p.q[:0]
			if len(p.q) > 0 && p.down == nil {
				if err := p.cl.Flush(); err != nil {
					c.fail(p, err)
				}
			}
		}
		for i := 0; i < len(c.peers); i++ { // a follow-up may add a peer
			p := c.peers[i]
			for _, f := range p.q {
				var resp *zkvproto.Response
				if p.down == nil {
					var err error
					if resp, err = p.cl.ReadReply(); err != nil {
						c.fail(p, err)
					}
				}
				if r, done := c.step(p, f, resp); done {
					emit(r)
				}
			}
			if len(p.q) > 0 && p.down == nil {
				p.fails = 0
			}
			p.q = p.q[:0]
		}
	}
	c.ops, c.arena = c.ops[:0], c.arena[:0]
}

// step applies one frame's reply — nil when the connection failed first — to
// its operation: it decides the operation, queues the next round's frame for
// it, or absorbs a reply the operation did not wait for.
func (c *Client) step(p *peer, f frame, resp *zkvproto.Response) (Result, bool) {
	op := int(f.op)
	o := &c.ops[op]
	get := o.kind == zkvproto.OpGet
	answered := resp != nil && resp.Status <= zkvproto.StatusNotFound
	switch f.role {
	case rolePrimary:
		switch {
		case resp == nil && get && o.rep != "":
			// Failover: the replica serves the read; the primary's error is
			// surfaced only if the replica fails too.
			o.err = c.clipped(p, f, o.kind)
			c.send(o.rep, op, roleFailover, zkvproto.OpGet, o.key, nil)
			return Result{}, false
		case resp == nil:
			return Result{Op: op, Node: p.node, Err: c.clipped(p, f, o.kind)}, true
		case resp.Status == zkvproto.StatusBusy:
			return Result{Op: op, Node: p.node,
				Err: &zkvproto.OpError{Op: opNames[o.kind], Class: zkvproto.ClassBusy, Err: zkvproto.ErrBusy}}, true
		case !get || o.rep == "":
		case resp.Status == zkvproto.StatusNotFound:
			// The replica may still hold a key the primary lost (restart,
			// eviction, handoff). Probed only now, not with the primary's
			// GET: a speculative probe would touch the replica's LRU state.
			c.send(o.rep, op, roleMiss, zkvproto.OpGet, o.key, nil)
			return Result{}, false
		case resp.Status == zkvproto.StatusOK && c.cfg.RepairEvery > 0:
			if c.nHit++; c.nHit%uint64(c.cfg.RepairEvery) == 0 {
				held := len(c.arena)
				c.arena = append(c.arena, resp.Val...)
				o.val = c.arena[held:]
				c.send(o.rep, op, roleCheck, zkvproto.OpGet, o.key, nil)
				return Result{}, false
			}
		}
		return c.reply(op, p.node, resp.Status, resp.Val), true

	case roleCopy:
		// Redundancy that read-repair heals later. A failed replica DEL
		// leaves a stale copy the next sampled cross-check can resurrect:
		// the deletion caveat of leaderless R=2 without tombstones.
		switch {
		case !answered || (resp.Status == zkvproto.StatusNotFound && o.kind == zkvproto.OpSet):
			c.stats.ReplicaErrors++
		case o.kind == zkvproto.OpSet:
			c.stats.ReplicaSets++
		}

	case roleFailover:
		if !answered {
			return Result{Op: op, Node: o.pri, Err: o.err}, true
		}
		c.stats.Failovers++
		r := c.reply(op, p.node, resp.Status, resp.Val)
		r.Failover = true
		return r, true

	case roleMiss:
		if !answered || resp.Status != zkvproto.StatusOK {
			return c.reply(op, o.pri, zkvproto.StatusNotFound, nil), true
		}
		c.stats.Repairs++
		c.send(o.pri, op, roleRepair, zkvproto.OpSet, o.key, resp.Val) // envelope verbatim: version preserved
		return c.reply(op, p.node, zkvproto.StatusOK, resp.Val), true

	case roleCheck:
		// Compare the replica's copy with the sampled primary hit, rewrite
		// the older side and serve the newer. Replica trouble is absorbed.
		if !answered {
			c.stats.ReplicaErrors++
			return c.reply(op, o.pri, zkvproto.StatusOK, o.val), true
		}
		pv, _ := versionOf(o.val)
		rv, _ := versionOf(resp.Val)
		switch {
		case resp.Status == zkvproto.StatusNotFound || rv < pv:
			c.stats.Repairs++
			c.send(o.rep, op, roleRepair, zkvproto.OpSet, o.key, o.val)
		case rv > pv:
			// The replica outran the primary: a primary write was shed or
			// clipped while its copy, sent in the same flush, landed; or the
			// primary warm-restarted from an older image. Promote it.
			c.stats.Repairs++
			c.send(o.pri, op, roleRepair, zkvproto.OpSet, o.key, resp.Val)
			return c.reply(op, p.node, zkvproto.StatusOK, resp.Val), true
		}
		return c.reply(op, o.pri, zkvproto.StatusOK, o.val), true

	case roleRepair:
		// A repair the primary refuses is retried by the next read that
		// finds the gap; one the replica refuses is a replica error.
		if p.node == o.rep && (!answered || resp.Status != zkvproto.StatusOK) {
			c.stats.ReplicaErrors++
		}
	}
	return Result{}, false
}

// reply builds the Result of an operation a node answered.
func (c *Client) reply(op int, node string, status byte, val []byte) Result {
	if status == zkvproto.StatusOK && c.ops[op].kind == zkvproto.OpGet {
		_, val = versionOf(val)
	}
	return Result{Op: op, Node: node, Status: status, Val: val}
}

// clipped classifies an operation whose frame got no reply from p: a mutation
// written to a live connection may have executed, anything else did not.
func (c *Client) clipped(p *peer, f frame, kind byte) error {
	if f.sent && kind != zkvproto.OpGet {
		return &zkvproto.OpError{Op: opNames[kind], Class: zkvproto.ClassAmbiguous,
			Err: fmt.Errorf("%w: %w", zkvproto.ErrAmbiguous, p.down)}
	}
	return &zkvproto.OpError{Op: opNames[kind], Class: zkvproto.Classify(p.down), Err: p.down}
}

// one drains the batch of one that was just queued, appending a GET hit's
// payload to dst; a status the operation cannot end on becomes a
// protocol-class error.
func (c *Client) one(dst []byte) ([]byte, Result) {
	var r Result
	c.Drain(func(got Result) {
		kind := c.ops[0].kind
		switch {
		case got.Err != nil:
		case got.Status == zkvproto.StatusErr || (got.Status == zkvproto.StatusNotFound && kind == zkvproto.OpSet):
			got.Err = &zkvproto.OpError{Op: opNames[kind], Class: zkvproto.ClassProtocol,
				Err: fmt.Errorf("server error: %s", got.Val)}
		case got.Status == zkvproto.StatusOK:
			dst = append(dst, got.Val...)
		}
		r = got
	})
	return dst, r
}

// Set stamps val with the next version and writes it to the key's primary
// and, with R=2, to its replica in the same flush. The primary write is the
// operation: its error is returned. The replica's failure is counted and
// absorbed, and read-repair heals the gap later.
func (c *Client) Set(key, val []byte) error {
	c.Queue(zkvproto.OpSet, key, val)
	_, r := c.one(nil)
	return r.Err
}

// Get reads the key, appending the (stamp-stripped) payload to dst. The
// primary is authoritative; with R=2 the replica covers for it two ways: a
// primary transport failure fails over to the replica, and a primary miss
// probes it — a replica hit there means the primary lost the key, so the
// envelope is written back: read-repair. Sampled hits (RepairEvery)
// additionally cross-check versions in the background of normal traffic.
func (c *Client) Get(key, dst []byte) ([]byte, bool, error) {
	c.Queue(zkvproto.OpGet, key, nil)
	dst, r := c.one(dst)
	return dst, r.Err == nil && r.Status == zkvproto.StatusOK, r.Err
}

// Del removes the key from its primary (authoritative result) and, with
// R=2, from the replica in the same flush (best-effort).
func (c *Client) Del(key []byte) (bool, error) {
	c.Queue(zkvproto.OpDel, key, nil)
	_, r := c.one(nil)
	return r.Err == nil && r.Status == zkvproto.StatusOK, r.Err
}

// NodeHealth is one node's health probe outcome: its parsed stats, or the
// error that prevented them.
type NodeHealth struct {
	Stats *zkvproto.ServerStats
	Err   error
}

// Health probes every ring member with one STATS round trip each and parses
// the reply. A node that cannot answer gets its error recorded rather than
// failing the sweep — health checks exist precisely for unhealthy clusters.
func (c *Client) Health() map[string]NodeHealth {
	out := make(map[string]NodeHealth)
	for _, node := range c.router.Ring().Nodes() {
		var h NodeHealth
		var text string
		h.Err = c.try(c.peer(node), func(cl *zkvproto.Client) (err error) {
			text, err = cl.Stats()
			return err
		})
		if h.Err == nil {
			h.Stats, h.Err = zkvproto.ParseStats(text)
		}
		out[node] = h
	}
	return out
}
