package gather

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
)

// TestAllAlgorithmsUnderInvariants runs every algorithm on a mix of
// topologies (including the exotic families) with the engine-level
// invariant checker attached: valid positions every round and no movement
// after termination.
func TestAllAlgorithmsUnderInvariants(t *testing.T) {
	rng := graph.NewRNG(4242)
	topologies := []struct {
		name string
		g    *graph.Graph
	}{
		{"petersen", graph.Petersen()},
		{"wheel", graph.Wheel(8)},
		{"circulant", graph.Circulant(9, []int{1, 3})},
		{"caterpillar", graph.Caterpillar(3, 2)},
		{"regular", graph.MustRandomRegular(8, 3, rng)},
	}
	for _, tc := range topologies {
		tc.g = tc.g.WithPermutedPorts(rng)
		n := tc.g.N()
		k := n/2 + 1
		ids := AssignIDs(k, n, rng)
		pos := place.MaxMinDispersed(tc.g, k, rng)
		sc := &Scenario{G: tc.g, IDs: ids, Positions: pos}
		sc.Certify()

		runs := []struct {
			algo string
			cap  int
		}{
			{"faster", sc.Cfg.FasterBound(n) + 10},
			{"uxs", sc.Cfg.UXSGatherBound(n) + 2},
			{"undispersed", R(n) + 2},
		}
		for _, run := range runs {
			w, err := sc.NewWorld(run.algo, 0)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, run.algo, err)
			}
			inv := &sim.InvariantTracer{}
			w.SetTracer(inv)
			res := w.Run(run.cap)
			if inv.Err != nil {
				t.Errorf("%s/%s: invariant violated: %v", tc.name, run.algo, inv.Err)
			}
			if run.algo != "undispersed" && !res.DetectionCorrect {
				t.Errorf("%s/%s: detection incorrect: %+v", tc.name, run.algo, res)
			}
			if run.algo == "undispersed" && !res.AllTerminated {
				t.Errorf("%s/%s: did not terminate", tc.name, run.algo)
			}
		}
	}
}

// TestExoticFamiliesGatherWithDetection runs the full algorithm on the
// exotic topologies with a dispersed pair (exercising hop-meeting steps).
func TestExoticFamiliesGatherWithDetection(t *testing.T) {
	rng := graph.NewRNG(777)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"petersen", graph.Petersen()},
		{"wheel", graph.Wheel(9)},
		{"circulant", graph.Circulant(8, []int{1, 2})},
	} {
		tc.g = tc.g.WithPermutedPorts(rng)
		u, v, ok := place.PairAtDistance(tc.g, 2, rng)
		if !ok {
			t.Fatalf("%s: no distance-2 pair", tc.name)
		}
		sc := &Scenario{G: tc.g, IDs: []int{4, 9}, Positions: []int{u, v}}
		sc.Certify()
		res, err := sc.Run("faster", 0, sc.Cfg.FasterBound(tc.g.N())+10)
		if err != nil {
			t.Fatal(err)
		}
		if !res.DetectionCorrect {
			t.Errorf("%s: %+v", tc.name, res)
		}
	}
}

// TestSoakLargeUndispersed is the large-n soak: 40 nodes, 20 robots,
// ~290k rounds of Undispersed-Gathering. Skipped with -short.
func TestSoakLargeUndispersed(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rng := graph.NewRNG(31415)
	n := 40
	g := graph.FromFamily(graph.FamRandom, n, rng)
	k := 20
	ids := AssignIDs(k, g.N(), rng)
	pos := place.Clustered(g, k, k/2, rng)
	sc := &Scenario{G: g, IDs: ids, Positions: pos}
	w, err := sc.NewWorld("undispersed", 0)
	if err != nil {
		t.Fatal(err)
	}
	inv := &sim.InvariantTracer{}
	w.SetTracer(inv)
	res := w.Run(R(g.N()) + 2)
	if inv.Err != nil {
		t.Fatalf("invariant violated: %v", inv.Err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("soak failed: %+v", res)
	}
	t.Logf("soak: n=%d k=%d rounds=%d moves=%d", g.N(), k, res.Rounds, res.TotalMoves)
}
