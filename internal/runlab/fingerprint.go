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
// (which imports it). Cell identity is carried by CellKey, whose inputs
// are opaque JSON, and results travel as JSON.
package runlab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
)

// SchemaVersion is written into every key, and so folded into every
// fingerprint. A key's Inputs already hold every value a cell is computed
// from; bump SchemaVersion when the code that computes or encodes a cell
// changes (simulator, trace generators, result encoding) and the same
// inputs would now produce a different stored result. Store lines written
// under another version are stale: Open skips them and `runlab gc` drops
// them. Version 3: the key holds the cell's resolved inputs.
const SchemaVersion = 3

// Fingerprint is the stable content address of one experiment cell:
// 32 lowercase hex characters (the first 16 bytes of a SHA-256 over the
// cell key's JSON encoding).
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

// CellKey identifies one cell of a run matrix. It is the unit of
// content addressing: two cells with equal keys are interchangeable.
type CellKey struct {
	// Schema is the schema the key was built under (SchemaVersion at
	// write time).
	Schema int `json:"schema"`
	// Preset, Workload and Design name the cell for status, gc, the
	// manifest and cell errors. The workload and design names are also
	// part of the stored result, so they must be part of the key.
	Preset   string `json:"preset"`
	Workload string `json:"workload"`
	Design   string `json:"design"`
	// Sampled marks a sampled-execution cell, for status and the
	// manifest; its sampling parameters are among the Inputs.
	Sampled bool `json:"sampled,omitempty"`
	// Inputs is the caller's JSON encoding of every value the cell is
	// computed from. Encoding the key compacts it, so a key read back
	// from the store fingerprints as it did when written.
	Inputs json.RawMessage `json:"inputs"`
}

// Fingerprint hashes the key's JSON encoding.
func (k CellKey) Fingerprint() Fingerprint {
	b, err := json.Marshal(k)
	if err != nil {
		panic("runlab: encode cell key: " + err.Error()) // Inputs is not valid JSON
	}
	sum := sha256.Sum256(b)
	return Fingerprint(hex.EncodeToString(sum[:16]))
}
