package gather

import (
	"testing"

	"repro/internal/graph"
)

func TestScenarioValidate(t *testing.T) {
	g := graph.Path(4)
	good := &Scenario{G: g, IDs: []int{1, 2}, Positions: []int{0, 3}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	bad := []*Scenario{
		{G: nil, IDs: []int{1}, Positions: []int{0}},
		{G: g, IDs: []int{1}, Positions: []int{0, 1}},
		{G: g, IDs: nil, Positions: nil},
		{G: g, IDs: []int{1, 1}, Positions: []int{0, 1}},
		{G: g, IDs: []int{0}, Positions: []int{0}},
		{G: g, IDs: []int{1}, Positions: []int{9}},
	}
	for i, sc := range bad {
		if err := sc.Validate(); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

func TestScenarioDispersed(t *testing.T) {
	g := graph.Path(4)
	if !(&Scenario{G: g, IDs: []int{1, 2}, Positions: []int{0, 3}}).Dispersed() {
		t.Error("distinct nodes reported undispersed")
	}
	if (&Scenario{G: g, IDs: []int{1, 2}, Positions: []int{2, 2}}).Dispersed() {
		t.Error("shared node reported dispersed")
	}
}

func TestScenarioMinPairDistance(t *testing.T) {
	g := graph.Path(6)
	sc := &Scenario{G: g, IDs: []int{1, 2, 3}, Positions: []int{0, 3, 5}}
	if d := sc.MinPairDistance(); d != 2 {
		t.Errorf("min distance = %d, want 2", d)
	}
	one := &Scenario{G: g, IDs: []int{1}, Positions: []int{0}}
	if d := one.MinPairDistance(); d != -1 {
		t.Errorf("single robot distance = %d, want -1", d)
	}
	co := &Scenario{G: g, IDs: []int{1, 2}, Positions: []int{4, 4}}
	if d := co.MinPairDistance(); d != 0 {
		t.Errorf("co-located distance = %d, want 0", d)
	}
}

func TestScenarioCertifySetsLength(t *testing.T) {
	rng := graph.NewRNG(3)
	g := graph.FromFamily(graph.FamLollipop, 10, rng)
	sc := &Scenario{G: g, IDs: []int{1}, Positions: []int{0}}
	sc.Certify()
	if sc.Cfg.UXSLen <= 0 {
		t.Fatal("certify did not pin a length")
	}
}

func TestRunnersRejectInvalidScenario(t *testing.T) {
	sc := &Scenario{G: graph.Path(3), IDs: []int{1, 1}, Positions: []int{0, 1}}
	if _, err := sc.Run("faster", 0, 10); err == nil {
		t.Error("Run(faster) accepted duplicate IDs")
	}
	if _, err := sc.Run("uxs", 0, 10); err == nil {
		t.Error("Run(uxs) accepted duplicate IDs")
	}
	if _, err := sc.Run("undispersed", 0, 10); err == nil {
		t.Error("Run(undispersed) accepted duplicate IDs")
	}
	if _, err := sc.Run("hopmeet", 1, 10); err == nil {
		t.Error("Run(hopmeet) accepted duplicate IDs")
	}
	if _, err := sc.Run("dessmark", 0, 10); err == nil {
		t.Error("Run(dessmark) accepted duplicate IDs")
	}
}
