package zcluster

import (
	"fmt"

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
	// Options tunes every per-node connection (deadlines, retries,
	// backoff). Each node's client derives its jitter seed from
	// Options.Seed and the node name, so schedules stay deterministic but
	// decorrelated across nodes.
	Options zkvproto.Options
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

// Stats counts the cluster client's replication-layer events. All zeros in
// a healthy, converged cluster.
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
}

// Client routes operations across a cluster of zcached nodes through a
// consistent-hash ring. It multiplexes one resilient zkvproto.Client per
// node, lazily dialed; transport resilience (deadlines, reconnects,
// retries, backoff) stays in that layer, and this one adds placement,
// replication, and repair.
//
// Like zkvproto.Client, a Client is not safe for concurrent use; run one
// per goroutine, sharing the Router.
type Client struct {
	cfg    Config
	router *Router
	conns  map[string]*zkvproto.Client
	next   uint64 // version counter; next stamp is next+1
	nHit   uint64 // primary-hit counter for RepairEvery sampling
	stats  Stats
	env    []byte // scratch for stamped envelopes
}

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
		conns:  make(map[string]*zkvproto.Client),
		next:   cfg.StampBase,
	}, nil
}

// Router returns the client's routing cell (shared or private).
func (c *Client) Router() *Router { return c.router }

// Stats snapshots the replication-layer counters.
func (c *Client) Stats() Stats { return c.stats }

// Close closes every per-node connection.
func (c *Client) Close() error {
	var first error
	for _, cl := range c.conns {
		if err := cl.Close(); err != nil && first == nil {
			first = err
		}
	}
	clear(c.conns)
	return first
}

// addrOf resolves a node name to its dial address.
func (c Config) addrOf(node string) string {
	if a, ok := c.DialAddr[node]; ok {
		return a
	}
	return node
}

// dial opens a connection to node whose jitter seed is derived from seed
// and the node name.
func (c Config) dial(node string, seed uint64) (*zkvproto.Client, error) {
	opts := c.Options
	opts.Seed = hash.Mix64(seed ^ hash.Bytes64([]byte(node)))
	return zkvproto.DialOptions(c.addrOf(node), opts)
}

// conn returns the node's connection, dialing on first use. Dial failures
// are not cached: the next operation re-dials, so a node that comes back
// comes back.
func (c *Client) conn(node string) (*zkvproto.Client, error) {
	if cl, ok := c.conns[node]; ok {
		return cl, nil
	}
	cl, err := c.cfg.dial(node, c.cfg.Options.Seed)
	if err != nil {
		return nil, err
	}
	c.conns[node] = cl
	return cl, nil
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

// Set stamps val with the next version and writes it to the key's primary;
// with R=2 it also writes the replica. The primary write is the operation:
// its error is returned. The replica write is redundancy: its failure is
// counted and absorbed, and read-repair heals the gap later.
func (c *Client) Set(key, val []byte) error {
	ring := c.router.Ring()
	pri, rep := ring.PrimaryReplica(PointOf(key))
	c.next++
	c.env = zkvproto.AppendStamped(c.env[:0], c.next, val)
	pc, err := c.conn(pri)
	if err != nil {
		return err
	}
	if err := pc.Set(key, c.env); err != nil {
		return err
	}
	if c.cfg.Replication == 2 && rep != pri {
		if rc, err := c.conn(rep); err != nil {
			c.stats.ReplicaErrors++
		} else if err := rc.Set(key, c.env); err != nil {
			c.stats.ReplicaErrors++
		}
	}
	return nil
}

// Get reads the key, appending the (stamp-stripped) payload to dst.
// The primary is authoritative; with R=2 the replica covers for it two
// ways: a primary transport failure fails over to the replica, and a
// primary miss cross-checks the replica — a replica hit there means the
// primary lost the key (restart, eviction, handoff), so the envelope is
// written back: read-repair. Sampled hits (RepairEvery) additionally
// cross-check versions in the background of normal traffic.
func (c *Client) Get(key, dst []byte) ([]byte, bool, error) {
	ring := c.router.Ring()
	pri, rep := ring.PrimaryReplica(PointOf(key))
	r2 := c.cfg.Replication == 2 && rep != pri

	var (
		pval []byte
		pok  bool
	)
	pc, perr := c.conn(pri)
	if perr == nil {
		pval, pok, perr = pc.Get(key, nil)
	}
	if perr != nil {
		if !r2 {
			return dst, false, perr
		}
		// Failover: the replica serves the read; the primary's error is
		// surfaced only if the replica also fails.
		rc, rerr := c.conn(rep)
		if rerr != nil {
			return dst, false, perr
		}
		rval, rok, rerr := rc.Get(key, nil)
		if rerr != nil {
			return dst, false, perr
		}
		c.stats.Failovers++
		if !rok {
			return dst, false, nil
		}
		_, payload := versionOf(rval)
		return append(dst, payload...), true, nil
	}

	if pok {
		if r2 && c.cfg.RepairEvery > 0 {
			if c.nHit++; c.nHit%uint64(c.cfg.RepairEvery) == 0 {
				pval = c.crossCheck(key, pri, rep, pval)
			}
		}
		_, payload := versionOf(pval)
		return append(dst, payload...), true, nil
	}

	// Primary miss: with R=2 the replica may still hold the key.
	if r2 {
		if rc, rerr := c.conn(rep); rerr == nil {
			if rval, rok, rerr := rc.Get(key, nil); rerr == nil && rok {
				c.stats.Repairs++
				if pc, err := c.conn(pri); err == nil {
					pc.Set(key, rval) // envelope verbatim: version preserved
				}
				_, payload := versionOf(rval)
				return append(dst, payload...), true, nil
			}
		}
	}
	return dst, false, nil
}

// crossCheck compares the replica's copy against the primary's on a
// sampled hit, rewriting the older side, and returns the newer envelope
// (what the caller should serve). Replica trouble is absorbed.
func (c *Client) crossCheck(key []byte, pri, rep string, pval []byte) []byte {
	rc, err := c.conn(rep)
	if err != nil {
		c.stats.ReplicaErrors++
		return pval
	}
	rval, rok, err := rc.Get(key, nil)
	if err != nil {
		c.stats.ReplicaErrors++
		return pval
	}
	pv, _ := versionOf(pval)
	if !rok {
		c.stats.Repairs++
		if rc.Set(key, pval) != nil {
			c.stats.ReplicaErrors++
		}
		return pval
	}
	rv, _ := versionOf(rval)
	switch {
	case rv < pv:
		c.stats.Repairs++
		if rc.Set(key, pval) != nil {
			c.stats.ReplicaErrors++
		}
	case rv > pv:
		// The replica outran the primary (e.g. a primary write was shed
		// while its replica write landed on an earlier client turn, or the
		// primary warm-restarted from an older snapshot). Promote it.
		c.stats.Repairs++
		if pc, err := c.conn(pri); err == nil {
			pc.Set(key, rval)
		}
		return rval
	}
	return pval
}

// Del removes the key from its primary (authoritative result) and, with
// R=2, from the replica (best-effort — a failed replica delete leaves a
// stale copy that the next sampled cross-check can resurrect; the
// documented deletion caveat of leaderless R=2 without tombstones).
func (c *Client) Del(key []byte) (bool, error) {
	ring := c.router.Ring()
	pri, rep := ring.PrimaryReplica(PointOf(key))
	pc, err := c.conn(pri)
	if err != nil {
		return false, err
	}
	ok, err := pc.Del(key)
	if err != nil {
		return false, err
	}
	if c.cfg.Replication == 2 && rep != pri {
		if rc, rerr := c.conn(rep); rerr != nil {
			c.stats.ReplicaErrors++
		} else if _, rerr := rc.Del(key); rerr != nil {
			c.stats.ReplicaErrors++
		}
	}
	return ok, err
}

// NodeHealth is one node's health probe outcome: its parsed stats, or the
// error that prevented them.
type NodeHealth struct {
	Stats *zkvproto.ServerStats
	Err   error
}

// Health probes every ring member with a typed STATS round trip. A node
// that cannot answer gets its error recorded rather than failing the
// sweep — health checks exist precisely for unhealthy clusters.
func (c *Client) Health() map[string]NodeHealth {
	out := make(map[string]NodeHealth)
	for _, node := range c.router.Ring().Nodes() {
		cl, err := c.conn(node)
		if err != nil {
			out[node] = NodeHealth{Err: err}
			continue
		}
		st, err := cl.StatsTyped()
		out[node] = NodeHealth{Stats: st, Err: err}
	}
	return out
}
