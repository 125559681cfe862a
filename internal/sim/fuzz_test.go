package sim

import (
	"strings"
	"testing"
)

// FuzzParseScheduler fuzzes the -sched grammar. For every input,
// ParseScheduler must not panic and must return exactly one of an error or
// a scheduler, and a scheduler's printed form must reparse to the same
// printed form.
func FuzzParseScheduler(f *testing.F) {
	// Seed corpus: every form of the grammar listing, concrete specs, and
	// adversarial shapes.
	for _, line := range SchedulerGrammar() {
		f.Add(strings.Fields(line)[0])
	}
	for _, s := range []string{
		"", "full", "semi", "semi:0.5", "semi:0.05", "semi:1", "adv", "adv:3", "adv:1",
		"full:1", "semi:", "semi:0.04", "semi:1.01", "semi:-0.5", "semi:1e-1", "semi:0x1p-1",
		"semi:NaN", "semi:Inf", "adv:0", "adv:-1", "adv:", "adv:2.5", "adv:99999999999999999999",
		"semi:0.5:0.5", ":", "FULL", " full", "async",
	} {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseScheduler(spec, 1)
		if (err == nil) == (s == nil) {
			t.Fatalf("ParseScheduler(%q) = %v, %v: want exactly one of a scheduler or an error", spec, s, err)
		}
		if err != nil {
			return
		}
		again, err := ParseScheduler(s.String(), 1)
		if err != nil {
			t.Fatalf("printed form %q of %q rejected on reparse: %v", s.String(), spec, err)
		}
		if again.String() != s.String() {
			t.Fatalf("printed form unstable: %q reparses to %q", s.String(), again.String())
		}
	})
}
