package main

// The output oracle. refs/<workload>.json records, for every candidate
// operation a run can draw, the expected outcome: the HTTP status and the
// SHA-256 of the response body for estimates (a deterministic 422 i.i.d.
// rejection is an expected outcome like a 200), or the SHA-256 of the
// per-core (cycles, instructions) vector for deployment runs. The tables
// were recorded with -regen from the code at the commit that added them;
// a change that alters any output byte fails the check.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"efl/internal/sim"
)

// refEntry is one candidate's expected outcome.
type refEntry struct {
	Status int    `json:"status"`
	SHA256 string `json:"sha256"`
	// Home is the ring owner of an estimate-warm key in a 2-node fleet.
	Home string `json:"home,omitempty"`
}

// refTable is one workload's reference file.
type refTable struct {
	Workload string              `json:"workload"`
	Entries  map[string]refEntry `json:"entries"`
}

func refPath(dir, wl string) string { return filepath.Join(dir, wl+".json") }

func loadRefs(dir, wl string) (*refTable, error) {
	raw, err := os.ReadFile(refPath(dir, wl))
	if err != nil {
		return nil, fmt.Errorf("reference table: %w", err)
	}
	var t refTable
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("reference table %s: %w", refPath(dir, wl), err)
	}
	if t.Workload != wl || len(t.Entries) == 0 {
		return nil, fmt.Errorf("reference table %s: not a table for %s", refPath(dir, wl), wl)
	}
	return &t, nil
}

// writeRefs writes t with one entry per line, sorted, so diffs stay
// readable.
func writeRefs(dir string, t *refTable) error {
	ids := make([]string, 0, len(t.Entries))
	for id := range t.Entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	buf := []byte(fmt.Sprintf("{\n  \"workload\": %q,\n  \"entries\": {\n", t.Workload))
	for i, id := range ids {
		e, err := json.Marshal(t.Entries[id])
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(ids)-1 {
			sep = "\n"
		}
		buf = append(buf, fmt.Sprintf("    %q: %s%s", id, e, sep)...)
	}
	buf = append(buf, "  }\n}\n"...)
	return os.WriteFile(refPath(dir, t.Workload), buf, 0o644)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// deployDigest hashes a run's per-core (cycles, instructions) vector.
func deployDigest(res *sim.Result) string {
	buf := make([]byte, 0, 16*len(res.PerCore))
	for _, c := range res.PerCore {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(c.Cycles))
		buf = binary.LittleEndian.AppendUint64(buf, c.Instrs)
	}
	return digest(buf)
}

// check compares an estimate outcome with the reference; a nil error
// means the outcome is correct.
func (t *refTable) check(id string, status int, body []byte) error {
	e, ok := t.Entries[id]
	if !ok {
		return fmt.Errorf("%s: no reference entry", id)
	}
	if status != e.Status {
		return fmt.Errorf("%s: status %d, reference %d", id, status, e.Status)
	}
	if got := digest(body); got != e.SHA256 {
		return fmt.Errorf("%s: body digest %s, reference %s", id, got[:16], e.SHA256[:16])
	}
	return nil
}

// runDigest folds a run's outcome digests, in operation order, into the
// one digest the run reports.
type runDigest struct{ h [32]byte }

func (d *runDigest) add(id, sum string) {
	d.h = sha256.Sum256(append(append(d.h[:], id...), sum...))
}

func (d *runDigest) String() string { return hex.EncodeToString(d.h[:]) }
