package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/expt"
)

// programSeeds are the cmd/experiments seeds that every run of
// experiments-full measures, one per round in turn; the workload seed
// picks which comes first. Every run measures the same mix because an
// experiment's cost depends on its seed: E4 took 3.7 s at seed 1 and
// 8.6 s at seed 2, E21 5.8 s and 2.6 s. Seed 4 holds both [FAIL]
// verdicts known at seeds 1 to 10 (E4 and E15), so they show in every run.
var programSeeds = []uint64{4, 5, 6}

// progSeed is the program seed of round i of the mix.
func progSeed(i uint64) uint64 { return programSeeds[i%uint64(len(programSeeds))] }

// references holds the recorded outputs of experiments-full, keyed by
// program seed. Re-record with `run.sh --record` only when an output
// change is intended; the repo's determinism contract says it never is.
type references struct {
	Experiments map[string]tableRef `json:"experiments-full"`
}

// tableRef is one cmd/experiments run: the SHA-256 of each -outdir table
// and how many [PASS] and [FAIL] verdicts they hold. Any verdict or byte
// that differs from the reference makes the run incorrect. A [FAIL] the
// reference records is the program's reproducible output at that seed: it
// still counts as a failed operation (see verdicts), so a fix in the
// program shows as fewer failures once the references are re-recorded.
type tableRef struct {
	Tables map[string]string `json:"tables"`
	Passes int               `json:"passes"`
	Fails  int               `json:"fails"`
}

//go:embed references.json
var referencesJSON []byte

func loadReferences() (*references, error) {
	var r references
	if err := json.Unmarshal(referencesJSON, &r); err != nil {
		return nil, fmt.Errorf("references.json: %w", err)
	}
	return &r, nil
}

func (r *references) table(seed uint64) (tableRef, error) {
	ref, ok := r.Experiments[strconv.FormatUint(seed, 10)]
	if !ok {
		return tableRef{}, fmt.Errorf("no experiments reference for program seed %d", seed)
	}
	return ref, nil
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// aggregate is the closing row of an NDJSON sweep body.
type aggregate struct {
	Aggregate bool  `json:"aggregate"`
	Seeds     int   `json:"seeds"`
	Detected  int   `json:"detected"`
	Crashed   int   `json:"crashed"`
	Rounds    int64 `json:"rounds"`
	Moves     int64 `json:"moves"`
}

// parseAggregate decodes a body's last row.
func parseAggregate(body []byte) (aggregate, error) {
	body = bytes.TrimRight(body, "\n")
	last := body[bytes.LastIndexByte(body, '\n')+1:]
	var a aggregate
	if err := json.Unmarshal(last, &a); err != nil || !a.Aggregate {
		return aggregate{}, fmt.Errorf("body has no aggregate row (last line %.80q)", last)
	}
	return a, nil
}

// tableSummary hashes a set of tables and counts their verdicts.
func tableSummary(tables map[string][]byte) tableRef {
	ref := tableRef{Tables: make(map[string]string, len(tables))}
	for name, b := range tables {
		ref.Tables[name] = sha(b)
		ref.Passes += bytes.Count(b, []byte("[PASS]"))
		ref.Fails += bytes.Count(b, []byte("[FAIL]"))
	}
	return ref
}

// verdicts tallies one experiments run checked by checkTables. When its
// tables equal the reference (err is nil), each [PASS] is one ok operation
// and each [FAIL] one failed operation, kept with its table and line.
// Otherwise the run is one failed operation.
func (t *tally) verdicts(tables map[string][]byte, err error) {
	if err != nil {
		t.record(err)
		return
	}
	for _, name := range sortedKeys(tables) {
		for _, line := range bytes.Split(tables[name], []byte("\n")) {
			for i := bytes.Count(line, []byte("[PASS]")); i > 0; i-- {
				t.attempted++
				t.ok++
			}
			for i := bytes.Count(line, []byte("[FAIL]")); i > 0; i-- {
				t.fail(fmt.Sprintf("%s: %s", name, bytes.TrimSpace(line)))
			}
		}
	}
}

// checkTable compares one table with its reference.
func checkTable(name string, table []byte, ref tableRef) error {
	want, ok := ref.Tables[name]
	if !ok {
		return fmt.Errorf("table %s has no reference", name)
	}
	if sha(table) != want {
		return fmt.Errorf("table %s differs from its reference", name)
	}
	return nil
}

// checkTables compares a complete set of tables with the reference.
func checkTables(tables map[string][]byte, ref tableRef) error {
	got := tableSummary(tables)
	if got.Passes != ref.Passes || got.Fails != ref.Fails {
		return fmt.Errorf("%d [PASS] and %d [FAIL] verdicts, reference has %d and %d",
			got.Passes, got.Fails, ref.Passes, ref.Fails)
	}
	if len(tables) != len(ref.Tables) {
		return fmt.Errorf("%d tables, reference has %d", len(tables), len(ref.Tables))
	}
	for _, name := range sortedKeys(tables) {
		if err := checkTable(name, tables[name], ref); err != nil {
			return err
		}
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// recordReferences runs every experiment once per program seed and
// writes perfbench/references.json (relative to the checkout root).
func recordReferences(e env) error {
	r := references{Experiments: map[string]tableRef{}}
	for _, s := range programSeeds {
		tables := map[string][]byte{}
		for _, x := range expt.All() {
			table, _, err := experimentOnce(e, x.ID, s)
			if err != nil {
				return err
			}
			tables[x.ID+".txt"] = table
		}
		ref := tableSummary(tables)
		r.Experiments[strconv.FormatUint(s, 10)] = ref
		fmt.Fprintf(os.Stderr, "recorded program seed %d: %d [PASS], %d [FAIL]\n", s, ref.Passes, ref.Fails)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "references.json"), append(b, '\n'), 0o644)
}
