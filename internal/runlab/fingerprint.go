// Package runlab provides a content-addressed result store and a
// resumable, cancellable parallel runner for experiment matrices.
//
// The evaluation is a large matrix of (workload × design × policy ×
// lookup) cells, and every cell is a pure function of its configuration:
// the simulator is deterministic under a fixed seed. runlab exploits that
// by giving each cell a stable fingerprint (a content address over every
// input that can change the result) and persisting finished cells to a
// sharded JSONL store. A runner wraps the compute function with cache
// lookups, bounded workers, panic recovery, context cancellation, and
// periodic checkpoint flushes, so an interrupted suite resumes from
// completed cells and a fully warm rerun performs zero simulations. Each
// cell is computed once; a failure is reported, never retried.
//
// The package is generic: it knows nothing about the root zcache package
// (which imports it). Cell identity is carried by CellKey and results
// travel as JSON.
package runlab

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"strconv"
)

// SchemaVersion is folded into every fingerprint. Bump it whenever the
// simulator's semantics or the result encoding change in a way that makes
// previously stored cells stale; old records then simply stop matching
// and `runlab gc` can drop them. Version 2: the policy number is a
// repl.Kind, which swapped full and bucketed LRU against version 1.
const SchemaVersion = 2

// Fingerprint is the stable content address of one experiment cell:
// 32 lowercase hex characters (the first 16 bytes of a SHA-256 over the
// cell key's fields in fixed order).
type Fingerprint string

// Shard names the store shard file this fingerprint lives in.
func (f Fingerprint) Shard() string { return string(f[:2]) + ".jsonl" }

// Valid reports whether f looks like a fingerprint this package produced.
func (f Fingerprint) Valid() bool {
	if len(f) != 32 {
		return false
	}
	for _, c := range f {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// PresetKey is the machine-sizing half of a cell's identity. Every field
// that changes simulated behaviour must appear here; anything derived
// (labels, descriptions) must not.
type PresetKey struct {
	Name         string `json:"name"`
	Cores        int    `json:"cores"`
	L2Bytes      uint64 `json:"l2_bytes"`
	L2Banks      int    `json:"l2_banks"`
	Instructions uint64 `json:"instructions"`
	Warmup       uint64 `json:"warmup"`
	Seed         uint64 `json:"seed"`
}

// CellKey identifies one cell of a run matrix. It is the unit of
// content addressing: two cells with equal keys are interchangeable.
type CellKey struct {
	// Schema is the fingerprint schema the key was built under
	// (SchemaVersion at write time).
	Schema int `json:"schema"`
	// Preset sizes the simulated machine.
	Preset PresetKey `json:"preset"`
	// Workload is the suite workload name.
	Workload string `json:"workload"`
	// Design is the design-point label ("SA-4", "Z4/52", ...); DesignID
	// and Ways pin the underlying array organization so a relabelled
	// design cannot alias an old record.
	Design   string `json:"design"`
	DesignID int    `json:"design_id"`
	Ways     int    `json:"ways"`
	// Policy and Lookup are the repl.Kind / energy.Lookup enum values.
	Policy int `json:"policy"`
	Lookup int `json:"lookup"`
	// Sampled, when non-nil, marks a sampled-execution cell and pins the
	// sampling parameters. Exact cells leave it nil, and the fingerprint
	// of a nil-Sampled key is byte-identical to what this package always
	// produced — so sampled cells hash disjointly from exact ones and a
	// sampled run can never poison (or be served from) the exact store.
	Sampled *SampledKey `json:"sampled,omitempty"`
}

// SampledKey is the sampled-execution half of a cell's identity: every
// sampling parameter that changes the extrapolated result.
type SampledKey struct {
	Intervals int    `json:"intervals"`
	Clusters  int    `json:"clusters"`
	Seed      uint64 `json:"seed"`
}

// Fingerprint hashes the key's fields in fixed order. The serialization
// is NUL-delimited decimal/raw strings, so no field boundary ambiguity
// and no dependence on struct layout or JSON key ordering.
func (k CellKey) Fingerprint() Fingerprint {
	h := sha256.New()
	io.WriteString(h, "zcache-runlab")
	for _, f := range []string{
		strconv.Itoa(k.Schema),
		k.Preset.Name,
		strconv.Itoa(k.Preset.Cores),
		strconv.FormatUint(k.Preset.L2Bytes, 10),
		strconv.Itoa(k.Preset.L2Banks),
		strconv.FormatUint(k.Preset.Instructions, 10),
		strconv.FormatUint(k.Preset.Warmup, 10),
		strconv.FormatUint(k.Preset.Seed, 10),
		k.Workload,
		k.Design,
		strconv.Itoa(k.DesignID),
		strconv.Itoa(k.Ways),
		strconv.Itoa(k.Policy),
		strconv.Itoa(k.Lookup),
	} {
		io.WriteString(h, f)
		h.Write([]byte{0})
	}
	if k.Sampled != nil {
		for _, f := range []string{
			"sampled",
			strconv.Itoa(k.Sampled.Intervals),
			strconv.Itoa(k.Sampled.Clusters),
			strconv.FormatUint(k.Sampled.Seed, 10),
		} {
			io.WriteString(h, f)
			h.Write([]byte{0})
		}
	}
	sum := h.Sum(nil)
	return Fingerprint(hex.EncodeToString(sum[:16]))
}
