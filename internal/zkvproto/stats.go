package zkvproto

import (
	"fmt"
	"strconv"
	"strings"
)

// ServerStats is the metrics text a STATS op returns, read by name. Every
// line zcached emits is `name value` (Prometheus exposition style, counters
// only), so new server counters never break old parsers.
type ServerStats struct {
	// All holds every parsed line, keyed by the full metric name including
	// any labels (e.g. `zkv_walk_depth_bucket{depth="0"}`).
	All map[string]uint64
}

// HitRate is zkv_get_hits_total over zkv_gets_total, or 0 when no GETs ran.
func (s *ServerStats) HitRate() float64 {
	gets := s.All["zkv_gets_total"]
	if gets == 0 {
		return 0
	}
	return float64(s.All["zkv_get_hits_total"]) / float64(gets)
}

// ParseStats parses the STATS metrics text. A structurally bad line (no
// value, non-integer value) is an error — the text is machine-emitted, so
// damage means the transport or the server is broken.
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
	}
	return st, nil
}
