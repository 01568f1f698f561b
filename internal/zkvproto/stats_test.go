package zkvproto

import (
	"strings"
	"testing"
)

const sampleStats = `zkv_shards 4
zkv_capacity_entries 4096
zkv_resident_entries 1024
zkv_gets_total 1000
zkv_get_hits_total 800
zkv_get_misses_total 200
zkv_get_locked_total 3
zkv_sets_total 500
zkv_inserts_total 300
zkv_overwrites_total 200
zkv_dels_total 10
zkv_del_hits_total 7
zkv_evictions_total 42
zkv_relocations_total 99
zkv_key_collisions_total 0
zkv_walk_depth_bucket{depth="0"} 250
zkv_walk_depth_bucket{depth="1"} 40
zkv_walk_depth_bucket{depth="2+"} 10
zkv_conns_total 12
zkv_requests_total 1510
zkv_proto_errors_total 0
zkv_ready 1
zkv_shed_conns_total 1
zkv_shed_requests_total 2
zkv_migrate_pages_total 3
zkv_migrate_entries_total 120
zkv_migrate_bytes_total 5760
zkv_forgets_total 2
zkv_forget_dropped_total 118
zkv_some_future_counter 7
`

func TestParseStats(t *testing.T) {
	st, err := ParseStats(sampleStats)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]uint64{
		"zkv_shards": 4, "zkv_capacity_entries": 4096, "zkv_resident_entries": 1024,
		"zkv_gets_total": 1000, "zkv_get_hits_total": 800, "zkv_get_misses_total": 200, "zkv_get_locked_total": 3,
		"zkv_sets_total": 500, "zkv_inserts_total": 300, "zkv_overwrites_total": 200,
		"zkv_dels_total": 10, "zkv_del_hits_total": 7, "zkv_evictions_total": 42, "zkv_relocations_total": 99,
		"zkv_ready": 1, "zkv_shed_conns_total": 1, "zkv_shed_requests_total": 2,
		"zkv_migrate_pages_total": 3, "zkv_migrate_entries_total": 120, "zkv_migrate_bytes_total": 5760,
		"zkv_forgets_total": 2, "zkv_forget_dropped_total": 118,
		`zkv_walk_depth_bucket{depth="0"}`: 250, `zkv_walk_depth_bucket{depth="1"}`: 40, `zkv_walk_depth_bucket{depth="2+"}`: 10,
	} {
		if got, ok := st.All[name]; !ok || got != want {
			t.Fatalf("%s = %d (present %v), want %d", name, got, ok, want)
		}
	}
	if hr := st.HitRate(); hr != 0.8 {
		t.Fatalf("hit rate %v, want 0.8", hr)
	}
	// Unknown counters survive in All — forward compatibility.
	if st.All["zkv_some_future_counter"] != 7 {
		t.Fatalf("future counter lost: %v", st.All)
	}
	if len(st.All) != len(strings.Split(strings.TrimSpace(sampleStats), "\n")) {
		t.Fatalf("All holds %d lines", len(st.All))
	}
}

func TestParseStatsErrors(t *testing.T) {
	bad := []string{
		"zkv_gets_total",         // no value
		"zkv_gets_total abc",     // non-integer
		"zkv_gets_total -1",      // negative
		"zkv_gets_total 1 extra", // trailing junk
	}
	for _, text := range bad {
		if _, err := ParseStats(text); err == nil {
			t.Errorf("ParseStats(%q) accepted", text)
		}
	}
	// Empty text and blank lines are fine.
	st, err := ParseStats("\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.All) != 0 {
		t.Fatalf("blank text parsed %d lines", len(st.All))
	}
	if st.HitRate() != 0 {
		t.Fatal("zero-get hit rate not 0")
	}
}
