package gather

import (
	"testing"

	"repro/internal/graph"
)

// undispersedScenario places k robots with one co-located pair (at node
// pairAt) and the rest alone on distinct nodes.
func undispersedScenario(g *graph.Graph, k int, rng *graph.RNG) *Scenario {
	n := g.N()
	ids := AssignIDs(k, n, rng)
	perm := rng.Perm(n)
	pos := make([]int, k)
	pos[0] = perm[0]
	pos[1] = perm[0] // the undispersed seed pair
	for i := 2; i < k; i++ {
		pos[i] = perm[i-1]
	}
	return &Scenario{G: g, IDs: ids, Positions: pos}
}

func TestUndispersedGathersOnFamilies(t *testing.T) {
	rng := graph.NewRNG(101)
	for _, fam := range graph.AllFamilies() {
		for _, n := range []int{4, 8, 12} {
			g := graph.FromFamily(fam, n, rng)
			k := max(2, g.N()/2)
			sc := undispersedScenario(g, k, rng)
			res, err := sc.Run("undispersed", 0, R(g.N())+2)
			if err != nil {
				t.Fatal(err)
			}
			if !res.DetectionCorrect {
				t.Errorf("%s n=%d k=%d: detection incorrect: gathered=%v terminated=%v",
					fam, g.N(), k, res.Gathered, res.AllTerminated)
			}
			// R(n) rounds of the algorithm plus the termination round.
			if res.Rounds > R(g.N())+1 {
				t.Errorf("%s n=%d: ran %d rounds > R(n)+1=%d", fam, g.N(), res.Rounds, R(g.N())+1)
			}
		}
	}
}

func TestUndispersedGathersAtMinGroupHome(t *testing.T) {
	// Lemma 7: everyone ends at the minimum-groupid finder's start node.
	g := graph.Cycle(8)
	rng := graph.NewRNG(3)
	g = g.WithPermutedPorts(rng)
	sc := &Scenario{
		G:         g,
		IDs:       []int{4, 9, 2, 7, 5},
		Positions: []int{3, 3, 6, 6, 1},
	}
	// Groups: node 3 holds {4,9} (finder 4), node 6 holds {2,7} (finder 2),
	// node 1 holds waiter 5. Minimum groupid is 2, home node 6.
	res, err := sc.Run("undispersed", 0, R(8)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	for i, p := range res.FinalPositions {
		if p != 6 {
			t.Errorf("robot %d ended at %d, want 6 (min finder's home)", sc.IDs[i], p)
		}
	}
}

func TestUndispersedAllOnOneNode(t *testing.T) {
	// Fully gathered start: must stay gathered and detect.
	g := graph.Grid(3, 3)
	sc := &Scenario{G: g, IDs: []int{3, 1, 8}, Positions: []int{4, 4, 4}}
	res, err := sc.Run("undispersed", 0, R(9)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	for _, p := range res.FinalPositions {
		if p != 4 {
			t.Errorf("robot moved away from gathered node: %v", res.FinalPositions)
		}
	}
}

func TestUndispersedManyGroups(t *testing.T) {
	// Several finder/helper groups plus waiters on a random graph.
	rng := graph.NewRNG(77)
	g := graph.FromFamily(graph.FamRandom, 14, rng)
	n := g.N()
	ids := AssignIDs(9, n, rng)
	pos := []int{0, 0, 0, 5, 5, 9, 9, 2, 7}
	sc := &Scenario{G: g, IDs: ids, Positions: pos}
	res, err := sc.Run("undispersed", 0, R(n)+2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
}

func TestUndispersedDispersedStaysPut(t *testing.T) {
	// Lemma 11's first case: on a dispersed start nobody moves and nobody
	// claims gathering (verdict false at termination).
	g := graph.Path(6)
	sc := &Scenario{G: g, IDs: []int{5, 3}, Positions: []int{0, 5}}
	res, err := sc.Run("undispersed", 0, R(6)+2)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMoves != 0 {
		t.Errorf("robots moved on dispersed input: %d moves", res.TotalMoves)
	}
	if res.Gathered || res.DetectionCorrect {
		t.Errorf("dispersed input misreported: %+v", res)
	}
	if !res.AllTerminated {
		t.Error("robots did not terminate at R(n)")
	}
}

func TestUndispersedPairOnly(t *testing.T) {
	// Minimal undispersed instance: exactly one pair, k = 2.
	rng := graph.NewRNG(5)
	for _, n := range []int{2, 5, 10} {
		g := graph.FromFamily(graph.FamTree, n, rng)
		node := rng.Intn(g.N())
		sc := &Scenario{G: g, IDs: []int{2, 9}, Positions: []int{node, node}}
		res, err := sc.Run("undispersed", 0, R(g.N())+2)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DetectionCorrect {
			t.Errorf("n=%d: pair-only gathering failed: %+v", g.N(), res)
		}
	}
}

func TestUndispersedTotalMovesBounded(t *testing.T) {
	// Sanity on the move budget: total moves should be well below k * R.
	rng := graph.NewRNG(11)
	g := graph.FromFamily(graph.FamGrid, 9, rng)
	sc := undispersedScenario(g, 5, rng)
	res, err := sc.Run("undispersed", 0, R(g.N())+2)
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(R(g.N())) * int64(len(sc.IDs))
	if res.TotalMoves >= bound {
		t.Errorf("moves %d not below %d", res.TotalMoves, bound)
	}
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
}
