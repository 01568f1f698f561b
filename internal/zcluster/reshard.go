package zcluster

import (
	"fmt"

	"zcache/internal/zkvproto"
)

// ReshardOpts tunes AddNode.
type ReshardOpts struct {
	// PageBytes caps each MIGRATE page's entry bytes (0, or more than the
	// server's 256KiB cap, gets the cap). Smaller pages mean shorter
	// per-shard lock holds on the source — the knob trading handoff speed
	// against serving latency.
	PageBytes int
}

// ReshardReport is AddNode's accounting.
type ReshardReport struct {
	// Node is the added node; Arcs how many ring arcs moved to it.
	Node string
	Arcs int
	// Copy pass: pages streamed, entries and bytes landed on the new node
	// before the routing flip.
	CopyPages, CopiedEntries, CopiedBytes int
	// Delta pass: entries re-examined after the flip, and how many were
	// actually newer on the source and re-applied.
	DeltaChecked, DeltaApplied int
	// Forget pass: arcs dropped from their sources, entries dropped, and
	// arcs intentionally kept because the source is the arc's new replica.
	ForgottenArcs int
	Dropped       uint64
	KeptAsReplica int
}

// AddNode grows the cluster by one node, live. The protocol is
// copy → flip → delta → forget:
//
//  1. Copy: for each arc the new node will own, stream the current
//     owner's resident entries (paged MIGRATE) onto the new node. Both
//     nodes serve throughout; the source's scan holds each shard lock
//     only per page. Envelopes are copied verbatim — stamps survive.
//  2. Flip: publish the new ring through the shared Router with one
//     atomic swap. Every subsequent operation routes to the new node;
//     in-flight pipelined requests already queued to the source still
//     complete there, against data the source still holds.
//  3. Delta: re-stream each arc and re-apply any entry the source holds
//     at a newer version than the new node — the writes that raced the
//     copy pass. Version compare makes this pass idempotent.
//  4. Forget: drop each arc from its source and checkpoint, unless the
//     new ring makes that source the arc's replica — then its copy *is*
//     the replica and stays.
//
// The one-page overlap between passes means an entry can be applied
// twice, never lost; last-writer-wins by version makes the repeat
// harmless. What this protocol does not give: writes from other clients
// racing step 3 with interleaved StampBase ranges can land on the source
// post-scan and be dropped by step 4 — the same caveat as any
// cache-tier reshard, bounded by the flip-to-forget window.
//
// Every verb goes through call, which resends it across sheds and
// transport failures; that is safe because every verb involved is
// idempotent. An error — a protocol error, or a node unreachable after
// maxConsecutiveFailures failures in a row — before the flip leaves the
// cluster routing exactly as it was (the new node just holds dead copies).
// An error after the flip leaves routing on the new ring with the report
// describing how far the drain got; rerunning the remaining passes is safe
// for the same reason. AddNode runs between batches.
func (c *Client) AddNode(node string, opts ReshardOpts) (*ReshardReport, error) {
	old := c.router.Ring()
	if old.HasNode(node) {
		return nil, fmt.Errorf("zcluster: node %q already in ring", node)
	}
	next, err := old.WithNode(node)
	if err != nil {
		return nil, err
	}
	arcs := next.ArcsOwnedBy(node)
	rep := &ReshardReport{Node: node, Arcs: len(arcs)}

	// The joiner must answer before any arc moves: with nothing to copy, the
	// flip would otherwise route to a node nobody has reached.
	if err := c.call(node, (*zkvproto.Client).Ping); err != nil {
		return rep, fmt.Errorf("zcluster: dial new node: %w", err)
	}

	// Each arc has exactly one source: the new node's vnode point and its
	// predecessor are adjacent in the merged point set, so no other point
	// splits the arc, and the old ring's successor of the arc end owned
	// all of it.
	srcOf := make([]string, len(arcs))
	for i, a := range arcs {
		srcOf[i] = old.Primary(a.End)
	}

	// Copy pass: land a near-complete image before anyone routes to it.
	// Each SET writes a verbatim stamped envelope, so a resent one lands the
	// same bytes.
	for i, a := range arcs {
		pages, entries, bytes, err := c.streamArc(srcOf[i], a, opts.PageBytes, func(e zkvproto.MigrateEntry) error {
			return c.call(node, func(dst *zkvproto.Client) error { return dst.Set(e.Key, e.Val) })
		})
		rep.CopyPages += pages
		rep.CopiedEntries += entries
		rep.CopiedBytes += bytes
		if err != nil {
			return rep, fmt.Errorf("zcluster: copy arc %d from %s: %w", i, srcOf[i], err)
		}
	}

	// Flip: one atomic publish. No barrier needed — clients pick up the
	// ring at their next routing decision; requests already pipelined to
	// the source drain normally.
	c.router.Swap(next)

	// Delta pass: catch writes that landed on the source mid-copy. The unit
	// resent is the whole GET-compare-SET, never a bare SET: a resend
	// re-reads what the clipped attempt may have written.
	for i, a := range arcs {
		_, checked, _, err := c.streamArc(srcOf[i], a, opts.PageBytes, func(e zkvproto.MigrateEntry) error {
			srcVer, _ := versionOf(e.Val)
			applied := false
			err := c.call(node, func(dst *zkvproto.Client) error {
				have, ok, err := dst.Get(e.Key, nil)
				if err != nil {
					return err
				}
				if ok {
					if dstVer, _ := versionOf(have); dstVer >= srcVer {
						return nil
					}
				}
				applied = true
				return dst.Set(e.Key, e.Val)
			})
			if applied && err == nil {
				rep.DeltaApplied++
			}
			return err
		})
		rep.DeltaChecked += checked
		if err != nil {
			return rep, fmt.Errorf("zcluster: delta arc %d from %s: %w", i, srcOf[i], err)
		}
	}

	// Forget pass: clean-mark the handoff, arc by arc. Under R=2 an arc
	// whose source is its *new* replica keeps its copy — forgetting it
	// would destroy the replica the new ring just assigned there.
	for i, a := range arcs {
		if c.cfg.Replication == 2 {
			if _, arcRep := next.PrimaryReplica(a.End); arcRep == srcOf[i] {
				rep.KeptAsReplica++
				continue
			}
		}
		var dropped uint64
		err := c.call(srcOf[i], func(src *zkvproto.Client) (err error) {
			dropped, err = src.Forget(zkvproto.ForgetReq{Start: a.Start, End: a.End})
			return err
		})
		if err != nil {
			return rep, fmt.Errorf("zcluster: forget arc %d on %s: %w", i, srcOf[i], err)
		}
		rep.ForgottenArcs++
		rep.Dropped += dropped
	}
	return rep, nil
}

// streamArc pages through src's resident entries in the arc, invoking fn
// per entry. A page is requested at a fixed cursor, so a resent MIGRATE
// returns the same scan position. The cursor must strictly advance between
// pages; a stuck cursor is a protocol violation, not a resend.
func (c *Client) streamArc(src string, a Arc, pageBytes int, fn func(zkvproto.MigrateEntry) error) (pages, entries, bytes int, err error) {
	var cursor uint64
	for {
		var next uint64
		var page []zkvproto.MigrateEntry
		err := c.call(src, func(cl *zkvproto.Client) (err error) {
			next, page, err = cl.Migrate(zkvproto.MigrateReq{
				Start: a.Start, End: a.End, Cursor: cursor, MaxBytes: uint32(pageBytes),
			})
			return err
		})
		if err != nil {
			return pages, entries, bytes, err
		}
		pages++
		for _, e := range page {
			entries++
			bytes += len(e.Key) + len(e.Val)
			if err := fn(e); err != nil {
				return pages, entries, bytes, err
			}
		}
		if next == 0 {
			return pages, entries, bytes, nil
		}
		if next <= cursor {
			return pages, entries, bytes, fmt.Errorf("zcluster: migrate cursor stuck at %d (next %d)", cursor, next)
		}
		cursor = next
	}
}
