package zcluster

import (
	"bytes"
	"testing"
)

// benchCluster is a warm three-node R=2 cluster and the keys written to it.
func benchCluster(b *testing.B) (*Client, [][]byte, []byte) {
	c, err := New(Config{Nodes: startNodes(b, 3), Replication: 2, VNodes: 32})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { c.Close() })
	keys, val := make([][]byte, 256), bytes.Repeat([]byte("v"), 64)
	for i := range keys {
		keys[i] = testKey(i)
		if err := c.Set(keys[i], val); err != nil {
			b.Fatal(err)
		}
	}
	return c, keys, val
}

// BenchmarkClusterGet is one GET hit through the cluster client over
// loopback, one request in flight: the batch-of-one path serve-cluster runs.
func BenchmarkClusterGet(b *testing.B) {
	c, keys, _ := benchCluster(b)
	buf := make([]byte, 0, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var ok bool
		var err error
		if buf, ok, err = c.Get(keys[i%len(keys)], buf[:0]); err != nil || !ok {
			b.Fatalf("get: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkClusterSetR2 is one R=2 SET: two frames, one flush, and an
// overlapped pair of replies.
func BenchmarkClusterSetR2(b *testing.B) {
	c, keys, val := benchCluster(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Set(keys[i%len(keys)], val); err != nil {
			b.Fatal(err)
		}
	}
}
