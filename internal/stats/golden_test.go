package stats

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTables pins the exact rendering cmd/runlab's figures emit.
// The figure tools' output format is part of the repository's recorded
// results (results/*.txt), so a formatting change must be deliberate:
// run `go test ./internal/stats -update` and review the diff.
var goldenTables = []struct {
	name  string
	build func() *Table
}{
	{
		name: "basic",
		build: func() *Table {
			t := NewTable("workload", "design", "IPC gain", "BIPS/W gain")
			t.AddRow("canneal", "Z4/52", 1.1834, 1.0771)
			t.AddRow("gamess", "SA-16", 0.9997, 1.0)
			t.AddRow("geomean-all", "Z4/52", 1.07, 1.03)
			return t
		},
	},
	{
		name: "mixed-types",
		build: func() *Table {
			t := NewTable("workload#", "SA-16", "Z4/52")
			t.AddRow(0, 0.98, 1.0)
			t.AddRow(12, 1.5, float64(2))
			t.AddRow(71, 100.0, 3.14159)
			return t
		},
	},
	{
		name: "ragged-rows",
		build: func() *Table {
			// Extra cells are dropped; missing cells render empty.
			t := NewTable("a", "b", "c")
			t.AddRow("x")
			t.AddRow("longer-than-header", 2, 3, "dropped")
			t.AddRow()
			return t
		},
	},
	{
		name: "wide-headers",
		build: func() *Table {
			t := NewTable("claim", "measured IPC", "paper IPC")
			t.AddRow("Z4/52 vs SA-4 (top-10 miss-intensive)", 1.18, "1.18")
			return t
		},
	},
}

func TestTableGolden(t *testing.T) {
	for _, tc := range goldenTables {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.build().String()
			path := filepath.Join("testdata", "table_"+tc.name+".golden")
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
				t.Fatalf("%v (run `go test ./internal/stats -update` to create)", err)
			}
			if got != string(want) {
				t.Errorf("table %q rendering changed.\ngot:\n%s\nwant:\n%s\n(if deliberate, rerun with -update and review results/*.txt impact)",
					tc.name, got, want)
			}
		})
	}
}
