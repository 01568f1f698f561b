package zcluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"zcache/internal/netchaos"
	"zcache/internal/zkvproto"
)

// TestAddNodeSurvivesClippedCopy: a reset that clips one of the copy pass's
// SETs to the joiner costs a redial and a resend, not the join. The joiner
// sits behind a netchaos proxy that resets the first connection on its
// second request (the first copy SET, after AddNode's PING) and no later
// connection: netchaos counts n= per connection, so the schedule is the
// seed's — connection 0 draws under p on its second client-to-server chunk,
// connections 1–3 on none of their first 2000.
func TestAddNodeSurvivesClippedCopy(t *testing.T) {
	addrs := startNodes(t, 4)
	initial, joiner := addrs[:3], addrs[3]
	spec, err := netchaos.ParseSpec("reset:p=0.001,dir=c2s", 114964)
	if err != nil {
		t.Fatal(err)
	}
	proxy := netchaos.New(joiner, spec)
	if err := proxy.Start(""); err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	const keys = 400
	seeder, err := New(Config{Nodes: initial, VNodes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keys; i++ {
		if err := seeder.Set(testKey(i), []byte(fmt.Sprintf("val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	seeder.Close()

	c, err := New(Config{
		Nodes:    initial,
		VNodes:   32,
		DialAddr: map[string]string{joiner: proxy.Addr()},
		Options:  zkvproto.Options{OpTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// What the sources hold in the arcs that move, envelopes verbatim.
	old := c.Router().Ring()
	grown, err := old.WithNode(joiner)
	if err != nil {
		t.Fatal(err)
	}
	raw := make(map[string]*zkvproto.Client)
	for _, a := range addrs {
		cl, err := zkvproto.Dial(a)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		raw[a] = cl
	}
	moved := make(map[string][]byte)
	for i := 0; i < keys; i++ {
		key := testKey(i)
		if grown.Primary(PointOf(key)) != joiner {
			continue
		}
		v, ok, err := raw[old.Primary(PointOf(key))].Get(key, nil)
		if err != nil || !ok {
			t.Fatalf("key %d absent on its source: ok=%v err=%v", i, ok, err)
		}
		moved[string(key)] = v
	}
	if len(moved) == 0 {
		t.Fatal("no key moves to the joiner; the test is vacuous")
	}

	rep, err := c.AddNode(joiner, ReshardOpts{})
	if err != nil {
		t.Fatalf("AddNode with a clipped copy SET: %v", err)
	}
	if !c.Router().Ring().HasNode(joiner) {
		t.Fatal("the ring never flipped to the joiner")
	}
	if n := proxy.Stats().Resets; n == 0 {
		t.Fatal("the proxy reset nothing; the test is vacuous")
	}
	if st := c.Stats(); st.Faults[zkvproto.ClassAmbiguous] == 0 {
		t.Fatalf("the reset clipped no SET: %+v", st)
	}
	if rep.CopiedEntries < len(moved) {
		t.Fatalf("copied %d entries, %d keys moved", rep.CopiedEntries, len(moved))
	}
	for key, want := range moved {
		got, ok, err := raw[joiner].Get([]byte(key), nil)
		if err != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("joiner serves %s as %q (ok=%v err=%v), want the source's envelope %q", key, got, ok, err, want)
		}
	}
	t.Logf("reshard %+v; %d moved keys verified; proxy %s", rep, len(moved), proxy.Stats().Describe())
}
