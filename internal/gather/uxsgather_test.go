package gather

import (
	"testing"

	"repro/internal/graph"
)

// uxsScenario builds a scenario with a certified UXS length.
func uxsScenario(g *graph.Graph, ids, pos []int) *Scenario {
	sc := &Scenario{G: g, IDs: ids, Positions: pos}
	sc.Certify()
	return sc
}

func TestUXSGatherTwoRobots(t *testing.T) {
	rng := graph.NewRNG(21)
	for _, fam := range []graph.Family{graph.FamPath, graph.FamCycle, graph.FamRandom} {
		g := graph.FromFamily(fam, 6, rng)
		sc := uxsScenario(g, []int{3, 5}, []int{0, g.N() - 1})
		res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(g.N())+2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DetectionCorrect {
			t.Errorf("%s: detection incorrect: %+v", fam, res)
		}
	}
}

func TestUXSGatherManyRobotsDispersed(t *testing.T) {
	rng := graph.NewRNG(31)
	g := graph.FromFamily(graph.FamGrid, 9, rng)
	n := g.N()
	k := 5
	ids := AssignIDs(k, n, rng)
	pos := rng.Perm(n)[:k]
	sc := uxsScenario(g, ids, pos)
	res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(n)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
}

func TestUXSGatherGroupsMerge(t *testing.T) {
	// Co-located robots form groups following the largest ID.
	rng := graph.NewRNG(41)
	g := graph.FromFamily(graph.FamCycle, 7, rng)
	sc := uxsScenario(g, []int{2, 9, 4, 11}, []int{0, 0, 3, 3})
	res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(7)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
}

func TestUXSGatherSingleRobotTerminates(t *testing.T) {
	// k = 1: the robot runs its bits, waits 2T, nobody arrives, and it
	// correctly reports gathering (of itself).
	rng := graph.NewRNG(51)
	g := graph.FromFamily(graph.FamPath, 5, rng)
	sc := uxsScenario(g, []int{6}, []int{2})
	res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(5)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("single robot did not self-detect: %+v", res)
	}
}

func TestUXSGatherDetectAfterGather(t *testing.T) {
	// Detection can only happen at or after the first full co-location.
	rng := graph.NewRNG(61)
	g := graph.FromFamily(graph.FamTree, 8, rng)
	sc := uxsScenario(g, []int{3, 12, 7}, []int{0, 3, 6})
	res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(g.N())+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	if res.FirstGatherRound < 0 || res.Rounds < res.FirstGatherRound {
		t.Errorf("detect at %d before gather at %d", res.Rounds, res.FirstGatherRound)
	}
}

func TestUXSGatherRespectsTheoremBound(t *testing.T) {
	// Theorem 6 shape: rounds <= 2T(B+1)+1 where B is the bit budget.
	rng := graph.NewRNG(71)
	g := graph.FromFamily(graph.FamRandom, 7, rng)
	sc := uxsScenario(g, []int{5, 9}, []int{0, 4})
	bound := sc.Cfg.UXSGatherBound(g.N())
	res, err := sc.Run("uxs", 0, bound+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllTerminated || res.Rounds > bound {
		t.Errorf("rounds %d exceed Theorem 6 bound %d", res.Rounds, bound)
	}
}

func TestUXSGatherAdversarialIDLengths(t *testing.T) {
	// IDs with very different bit lengths: the short-ID robot must be
	// caught during its terminal wait by the long-ID robot (Lemma 1).
	rng := graph.NewRNG(81)
	g := graph.FromFamily(graph.FamCycle, 6, rng)
	sc := uxsScenario(g, []int{1, MaxID(6)}, []int{0, 3})
	res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(6)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect with ID lengths 1 and max: %+v", res)
	}
}

func TestUXSGatherEqualLengthIDs(t *testing.T) {
	// Lemma 2's second case: equal-length IDs must meet during the phase
	// of their first differing bit.
	rng := graph.NewRNG(91)
	g := graph.FromFamily(graph.FamPath, 6, rng)
	sc := uxsScenario(g, []int{12, 13}, []int{0, 5}) // 1100 vs 1101
	res, err := sc.Run("uxs", 0, sc.Cfg.UXSGatherBound(6)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("equal-length IDs failed: %+v", res)
	}
}
