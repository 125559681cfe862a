package graph

import (
	"strings"
	"testing"
)

// FuzzParseWorkload fuzzes the workload catalog grammar. For every input,
// ParseWorkload must not panic and must return exactly one of an error or
// a workload, and a workload's printed spec must reparse to the same
// printed spec. Parsing never builds: huge sizes are fine to feed.
func FuzzParseWorkload(f *testing.F) {
	// Seed corpus: every catalog sample spec, every syntax line and bare
	// name from the listing, and adversarial shapes.
	for _, e := range Catalog() {
		for _, s := range sampleSpecs[e.Name] {
			f.Add(s)
		}
		f.Add(e.Name)
		f.Add(e.Name + ":")
		f.Add(strings.Fields(e.Syntax)[0])
	}
	for _, s := range []string{
		"", ":", "::", "cycle:", "cycle:-3", "cycle:0", "cycle:99999999999999999999",
		"grid:3x", "grid:x3", "grid:3x5x7", "torus:2x2", "hypercube:25", "hypercube:0",
		"rreg:5,3", "rreg:4,4", "randm:5,100", "circulant:8,", "circulant:8,5",
		"maze:4x4,-1", "barbell:1", "bipartite:0x3", "petersen:3", "CYCLE:9",
		" cycle:9", "cycle:9 ", "cycle:+9", "cycle:0x10", "cycle:9\x00", "nosuch:4",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, spec string) {
		w, err := ParseWorkload(spec)
		if (err == nil) == (w == nil) {
			t.Fatalf("ParseWorkload(%q) = %v, %v: want exactly one of a workload or an error", spec, w, err)
		}
		if err != nil {
			return
		}
		again, err := ParseWorkload(w.String())
		if err != nil {
			t.Fatalf("printed form %q of %q rejected on reparse: %v", w.String(), spec, err)
		}
		if again.String() != w.String() {
			t.Fatalf("printed form unstable: %q reparses to %q", w.String(), again.String())
		}
	})
}
