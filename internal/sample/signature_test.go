package sample

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"zcache/internal/hash"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenStream is the deterministic access stream the signature golden is
// computed over: a zipf-ish mix of a small hot set and a cold sweep, the
// shape that exercises every histogram bucket class (short reuses, long
// reuses, cold misses).
func goldenStream(n int) []uint64 {
	lines := make([]uint64, n)
	for i := range lines {
		r := hash.Mix64(uint64(i) + 1)
		switch {
		case r%4 == 0: // hot set: short reuse distances
			lines[i] = r % 64
		case r%4 == 1: // warm set: medium distances
			lines[i] = 1000 + r%2048
		default: // cold sweep: first touches and very long reuses
			lines[i] = (1 << 20) + uint64(i)/2
		}
	}
	return lines
}

// render fixes the golden file format: one line per non-zero bucket.
func render(s Signature) string {
	var b strings.Builder
	fmt.Fprintf(&b, "total %d\ncold %d\n", s.Total, s.Cold)
	for i, c := range s.Hist {
		if c != 0 {
			fmt.Fprintf(&b, "bucket[%d] %d\n", i, c)
		}
	}
	return b.String()
}

// TestSignatureGolden pins the exact histogram of the deterministic stream.
// The signature feeds interval clustering and the stratified error bars, so
// a change here alters which legs get simulated — it must be deliberate:
// run `go test ./internal/sample -update` and re-validate sampled accuracy.
func TestSignatureGolden(t *testing.T) {
	lines := goldenStream(8192)
	var sig Signature
	last := map[uint64]int{}
	for i, line := range lines {
		if prev, ok := last[line]; ok {
			sig.AddReuse(uint64(i - prev))
		} else {
			sig.AddCold()
		}
		last[line] = i
	}
	got := render(sig)
	path := filepath.Join("testdata", "signature.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/sample -update` to create)", err)
	}
	if got != string(want) {
		t.Errorf("signature histogram changed.\ngot:\n%s\nwant:\n%s\n(if deliberate, rerun with -update and re-check `runlab validate-sampled`)",
			got, want)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		dist uint64
		want int
	}{
		{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
		{1 << 25, Buckets - 1}, {1 << 40, Buckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.dist); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.dist, got, c.want)
		}
	}
}

func TestPredictMissRatio(t *testing.T) {
	var s Signature
	for i := 0; i < 10; i++ {
		s.AddCold()
	}
	for i := 0; i < 30; i++ {
		s.AddReuse(4) // well inside any capacity below
	}
	for i := 0; i < 10; i++ {
		s.AddReuse(1 << 20) // far beyond capacity
	}
	got := s.PredictMissRatio(1024)
	want := float64(10+10) / 50
	if got != want {
		t.Errorf("PredictMissRatio = %v, want %v", got, want)
	}
	if r := (Signature{}).PredictMissRatio(1024); r != 0 {
		t.Errorf("empty signature predicts %v, want 0", r)
	}
}
