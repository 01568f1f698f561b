package runlab

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"zcache/internal/failpoint"
)

// manifestName is the run log kept beside the shards. It is append-only
// JSONL with the same torn-tail tolerance as the shards.
const manifestName = "MANIFEST.jsonl"

// ManifestEntry records one runner invocation against the store: enough
// provenance (git revision, preset, label) and outcome (cell counts,
// wall-clock) to audit where the cached cells came from.
type ManifestEntry struct {
	GitRev      string    `json:"git_rev,omitempty"`
	Label       string    `json:"label,omitempty"`
	Preset      string    `json:"preset,omitempty"`
	StartedAt   time.Time `json:"started_at"`
	WallSeconds float64   `json:"wall_seconds"`
	Total       int       `json:"total"`
	Cached      int       `json:"cached"`
	Computed    int       `json:"computed"`
	Failed      int       `json:"failed"`
	// Quarantined counts cells that failed but did not abort the run
	// (Runner.Quarantine); Corrupt is the store's corrupt-line count
	// observed at the end of the run.
	Quarantined int `json:"quarantined,omitempty"`
	Corrupt     int `json:"corrupt,omitempty"`
	// Sampled counts the run's sampled-execution cells (disjoint
	// fingerprints from exact cells; see CellKey.Sampled).
	Sampled int `json:"sampled,omitempty"`
}

// AppendManifest appends one entry to the store's manifest.
func (s *Store) AppendManifest(e ManifestEntry) error {
	if err := failpoint.Inject("runlab/manifest/append"); err != nil {
		return fmt.Errorf("runlab: manifest append: %w", err)
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("runlab: encode manifest entry: %w", err)
	}
	return appendFile(filepath.Join(s.dir, manifestName), append(line, '\n'))
}

// Manifest returns every readable manifest entry in append order,
// skipping corrupt lines.
func (s *Store) Manifest() ([]ManifestEntry, error) {
	f, err := os.Open(filepath.Join(s.dir, manifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runlab: open manifest: %w", err)
	}
	defer f.Close()
	var out []ManifestEntry
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var e ManifestEntry
		if err := json.Unmarshal(line, &e); err != nil {
			continue
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("runlab: scan manifest: %w", err)
	}
	return out, nil
}

var gitRevOnce struct {
	sync.Once
	rev string
}

// GitRev returns the working tree's short revision, or "" outside a git
// checkout (the manifest field is then omitted). Cached per process.
func GitRev() string {
	gitRevOnce.Do(func() {
		out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
		if err != nil {
			return
		}
		gitRevOnce.rev = string(bytes.TrimSpace(out))
	})
	return gitRevOnce.rev
}
