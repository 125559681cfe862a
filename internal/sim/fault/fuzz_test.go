package fault

import (
	"strings"
	"testing"
)

// FuzzParse fuzzes the -faults grammar. For every input, Parse must not
// panic and must return an error or a spec, and a spec's printed form must
// reparse to the same printed form.
func FuzzParse(f *testing.F) {
	// Seed corpus: every form of the grammar listing, concrete specs, and
	// adversarial shapes.
	for _, line := range Grammar() {
		f.Add(strings.Fields(line)[0])
	}
	for _, s := range []string{
		"", "none", "crash:1", "crash:3@7", "recover:1,10", "recover:2,5@3", "byz:2",
		"none:1", "crash", "crash:", "crash:0", "crash:-1", "crash:1@", "crash:1@-2",
		"crash:1@2@3", "recover:1", "recover:1,0", "recover:1,2,3", "recover:,5",
		"byz:1@3", "byz:+1", "crash:01", "crash:99999999999999999999", "CRASH:1", ":", "@",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec)
		if err != nil {
			if s != (Spec{}) {
				t.Fatalf("Parse(%q) rejected with a non-zero spec %+v: %v", spec, s, err)
			}
			return
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("printed form %q of %q rejected on reparse: %v", s.String(), spec, err)
		}
		if again.String() != s.String() {
			t.Fatalf("printed form unstable: %q reparses to %q", s.String(), again.String())
		}
	})
}
