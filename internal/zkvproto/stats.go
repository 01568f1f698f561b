package zkvproto

import (
	"fmt"
	"strconv"
	"strings"
)

// ServerStats is the typed view of the metrics text a STATS op returns.
// Every line zcached emits is `name value` (Prometheus exposition style,
// counters only); ParseStats maps the well-known zkv_* counters into named
// fields and keeps everything — including labeled histogram buckets — in
// All, so new server counters never break old parsers.
type ServerStats struct {
	Shards          uint64
	CapacityEntries uint64
	ResidentEntries uint64
	Gets            uint64
	GetHits         uint64
	GetMisses       uint64
	GetLocked       uint64 // GETs that fell back to the shard mutex
	Sets            uint64
	Inserts         uint64
	Overwrites      uint64
	Dels            uint64
	DelHits         uint64
	Evictions       uint64
	Relocations     uint64
	KeyCollisions   uint64
	Conns           uint64
	Requests        uint64
	ProtoErrors     uint64
	Ready           bool
	ShedConns       uint64
	ShedRequests    uint64
	MigratePages    uint64
	MigrateEntries  uint64
	MigrateBytes    uint64
	Forgets         uint64
	ForgetDropped   uint64

	// WalkDepth is the relocation-chain-length histogram, bucket i = installs
	// whose victim sat i relocations deep (last bucket aggregates ≥).
	WalkDepth []uint64

	// All holds every parsed line verbatim, keyed by the full metric name
	// including any labels.
	All map[string]uint64
}

// HitRate is GET hits over GETs, or 0 when no GETs ran.
func (s *ServerStats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.GetHits) / float64(s.Gets)
}

// ParseStats parses the STATS metrics text into its typed form. Unknown
// lines are kept in All; a structurally bad line (no value, non-integer
// value) is an error — the text is machine-emitted, so damage means the
// transport or the server is broken.
func ParseStats(text string) (*ServerStats, error) {
	st := &ServerStats{All: make(map[string]uint64)}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("zkvproto: stats line %d %q: no value", ln+1, line)
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("zkvproto: stats line %d %q: %v", ln+1, line, err)
		}
		st.All[name] = v
		switch name {
		case "zkv_shards":
			st.Shards = v
		case "zkv_capacity_entries":
			st.CapacityEntries = v
		case "zkv_resident_entries":
			st.ResidentEntries = v
		case "zkv_gets_total":
			st.Gets = v
		case "zkv_get_hits_total":
			st.GetHits = v
		case "zkv_get_misses_total":
			st.GetMisses = v
		case "zkv_get_locked_total":
			st.GetLocked = v
		case "zkv_sets_total":
			st.Sets = v
		case "zkv_inserts_total":
			st.Inserts = v
		case "zkv_overwrites_total":
			st.Overwrites = v
		case "zkv_dels_total":
			st.Dels = v
		case "zkv_del_hits_total":
			st.DelHits = v
		case "zkv_evictions_total":
			st.Evictions = v
		case "zkv_relocations_total":
			st.Relocations = v
		case "zkv_key_collisions_total":
			st.KeyCollisions = v
		case "zkv_conns_total":
			st.Conns = v
		case "zkv_requests_total":
			st.Requests = v
		case "zkv_proto_errors_total":
			st.ProtoErrors = v
		case "zkv_ready":
			st.Ready = v != 0
		case "zkv_shed_conns_total":
			st.ShedConns = v
		case "zkv_shed_requests_total":
			st.ShedRequests = v
		case "zkv_migrate_pages_total":
			st.MigratePages = v
		case "zkv_migrate_entries_total":
			st.MigrateEntries = v
		case "zkv_migrate_bytes_total":
			st.MigrateBytes = v
		case "zkv_forgets_total":
			st.Forgets = v
		case "zkv_forget_dropped_total":
			st.ForgetDropped = v
		default:
			if rest, found := strings.CutPrefix(name, `zkv_walk_depth_bucket{depth="`); found {
				depth, _, _ := strings.Cut(rest, `"`)
				depth = strings.TrimSuffix(depth, "+")
				if d, err := strconv.Atoi(depth); err == nil && d >= 0 && d < 64 {
					for len(st.WalkDepth) <= d {
						st.WalkDepth = append(st.WalkDepth, 0)
					}
					st.WalkDepth[d] = v
				}
			}
		}
	}
	return st, nil
}

// StatsTyped does one STATS round trip and parses the reply.
func (c *Client) StatsTyped() (*ServerStats, error) {
	text, err := c.Stats()
	if err != nil {
		return nil, err
	}
	return ParseStats(text)
}
