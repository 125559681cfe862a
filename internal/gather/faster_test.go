package gather

import (
	"testing"

	"repro/internal/graph"
)

// runFaster runs the full algorithm with a certified UXS and a generous cap.
func runFaster(t *testing.T, sc *Scenario) (res resWrap) {
	t.Helper()
	sc.Certify()
	r, err := sc.Run("faster", 0, sc.Cfg.FasterBound(sc.G.N())+10)
	if err != nil {
		t.Fatal(err)
	}
	return resWrap{r.Rounds, r.DetectionCorrect, r.Gathered, r.AllTerminated, r.FirstGatherRound}
}

type resWrap struct {
	Rounds           int
	DetectionCorrect bool
	Gathered         bool
	AllTerminated    bool
	FirstGather      int
}

func TestFasterUndispersedFinishesInStepOne(t *testing.T) {
	rng := graph.NewRNG(7)
	g := graph.FromFamily(graph.FamRandom, 8, rng)
	n := g.N()
	sc := &Scenario{G: g, IDs: []int{4, 11, 6}, Positions: []int{2, 2, 5}}
	res := runFaster(t, sc)
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	if res.Rounds > R(n)+1 {
		t.Errorf("undispersed start took %d rounds, want <= R+1 = %d", res.Rounds, R(n)+1)
	}
}

func TestFasterDistanceOneFinishesInStepTwo(t *testing.T) {
	g := graph.Path(8)
	sc := &Scenario{G: g, IDs: []int{5, 6}, Positions: []int{3, 4}}
	res := runFaster(t, sc)
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	cfg := sc.Cfg
	bound := R(8) + cfg.HopDuration(1, 8) + R(8) + 1
	if res.Rounds > bound {
		t.Errorf("distance-1 pair took %d rounds, want <= %d (through step 2)", res.Rounds, bound)
	}
	if res.Rounds <= R(8) {
		t.Errorf("finished before step 1 ended (%d rounds): impossible for dispersed input", res.Rounds)
	}
}

func TestFasterDistanceTwoFinishesInStepThree(t *testing.T) {
	g := graph.Path(8)
	sc := &Scenario{G: g, IDs: []int{5, 6}, Positions: []int{2, 4}}
	res := runFaster(t, sc)
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	cfg := sc.Cfg
	bound := 3*R(8) + cfg.HopDuration(1, 8) + cfg.HopDuration(2, 8) + 1
	if res.Rounds > bound {
		t.Errorf("distance-2 pair took %d rounds, want <= %d (through step 3)", res.Rounds, bound)
	}
}

func TestFasterDistanceThreeAndFive(t *testing.T) {
	for _, d := range []int{3, 5} {
		g := graph.Path(8)
		sc := &Scenario{G: g, IDs: []int{5, 6}, Positions: []int{0, d}}
		res := runFaster(t, sc)
		if !res.DetectionCorrect {
			t.Fatalf("distance %d: detection incorrect: %+v", d, res)
		}
		cfg := sc.Cfg
		bound := R(8) + 1 // step 1
		for i := 2; i <= d+1; i++ {
			bound += cfg.HopDuration(i-1, 8) + R(8) + 1
		}
		if res.Rounds > bound {
			t.Errorf("distance %d took %d rounds, want <= %d (through step %d)", d, res.Rounds, bound, d+1)
		}
	}
}

func TestFasterFarPairFallsToUXS(t *testing.T) {
	// Distance 7 > 5: steps 1-6 fail; step 7 (UXS) must finish the job.
	g := graph.Path(8)
	sc := &Scenario{G: g, IDs: []int{5, 6}, Positions: []int{0, 7}}
	res := runFaster(t, sc)
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	cfg := sc.Cfg
	preUXS := 6*R(8) + 6
	for i := 1; i <= 5; i++ {
		preUXS += cfg.HopDuration(i, 8)
	}
	if res.Rounds <= preUXS {
		t.Errorf("far pair finished in %d rounds, before the UXS stage at %d: impossible", res.Rounds, preUXS)
	}
}

func TestFasterManyRobotsRegime(t *testing.T) {
	// k >= n/2+1 on a cycle: Lemma 15 guarantees a pair within distance 2,
	// so the run must finish by step 3 (the O(n³) regime of Theorem 16).
	rng := graph.NewRNG(17)
	n := 10
	g := graph.Cycle(n)
	g = g.WithPermutedPorts(rng)
	k := n/2 + 1
	ids := AssignIDs(k, n, rng)
	pos := rng.Perm(n)[:k]
	sc := &Scenario{G: g, IDs: ids, Positions: pos}
	res := runFaster(t, sc)
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	cfg := sc.Cfg
	bound := 3*R(n) + cfg.HopDuration(1, n) + cfg.HopDuration(2, n) + 3
	if res.Rounds > bound {
		t.Errorf("k=%d >= n/2+1 took %d rounds, want <= %d (step 3)", k, res.Rounds, bound)
	}
}

func TestFasterSingleRobot(t *testing.T) {
	rng := graph.NewRNG(27)
	g := graph.FromFamily(graph.FamTree, 4, rng)
	sc := &Scenario{G: g, IDs: []int{3}, Positions: []int{1}}
	res := runFaster(t, sc)
	if !res.DetectionCorrect {
		t.Fatalf("single robot did not self-detect: %+v", res)
	}
}

func TestFasterKnownDistanceOracle(t *testing.T) {
	// Remark 13: with the initial distance known, the schedule jumps
	// straight to the right step and finishes much earlier.
	g := graph.Path(8)
	base := &Scenario{G: g, IDs: []int{5, 6}, Positions: []int{0, 3}}
	resBase := runFaster(t, base)

	oracle := &Scenario{G: g, IDs: []int{5, 6}, Positions: []int{0, 3},
		Cfg: Config{KnownDistance: 3}}
	resOracle := runFaster(t, oracle)

	if !resBase.DetectionCorrect || !resOracle.DetectionCorrect {
		t.Fatalf("detection incorrect: base=%+v oracle=%+v", resBase, resOracle)
	}
	if resOracle.Rounds >= resBase.Rounds {
		t.Errorf("oracle run (%d rounds) not faster than staged run (%d rounds)",
			resOracle.Rounds, resBase.Rounds)
	}
}

func TestFasterRandomScenarios(t *testing.T) {
	// Randomized end-to-end: every random scenario must gather and detect.
	rng := graph.NewRNG(1234)
	fams := graph.AllFamilies()
	for trial := 0; trial < 8; trial++ {
		fam := fams[trial%len(fams)]
		g := graph.FromFamily(fam, 5+trial%4, rng)
		n := g.N()
		k := 1 + rng.Intn(n)
		ids := AssignIDs(k, n, rng)
		pos := make([]int, k)
		for i := range pos {
			pos[i] = rng.Intn(n)
		}
		sc := &Scenario{G: g, IDs: ids, Positions: pos}
		res := runFaster(t, sc)
		if !res.DetectionCorrect {
			t.Errorf("trial %d (%s n=%d k=%d): detection incorrect: %+v", trial, fam, n, k, res)
		}
	}
}

func TestFasterDetectNeverBeforeGather(t *testing.T) {
	g := graph.Cycle(6)
	sc := &Scenario{G: g, IDs: []int{3, 9, 5}, Positions: []int{0, 2, 4}}
	res := runFaster(t, sc)
	if !res.DetectionCorrect {
		t.Fatalf("detection incorrect: %+v", res)
	}
	if res.FirstGather < 0 || res.Rounds < res.FirstGather {
		t.Errorf("detected at %d before first gather at %d", res.Rounds, res.FirstGather)
	}
}

func TestScheduleShapes(t *testing.T) {
	segs := schedule(Config{})
	if len(segs) != 12 {
		t.Fatalf("default schedule has %d segments, want 12", len(segs))
	}
	if segs[0].kind != segUG || segs[11].kind != segUXS {
		t.Error("default schedule must start with UG and end with UXS")
	}
	for i := 1; i < 11; i += 2 {
		if segs[i].kind != segHop || segs[i].radius != (i+1)/2 {
			t.Errorf("segment %d = %+v, want hop radius %d", i, segs[i], (i+1)/2)
		}
	}
	o := schedule(Config{KnownDistance: 4})
	if len(o) != 3 || o[0].kind != segHop || o[0].radius != 4 {
		t.Errorf("oracle schedule = %+v", o)
	}
	far := schedule(Config{KnownDistance: 9})
	if len(far) != 1 || far[0].kind != segUXS {
		t.Errorf("far oracle schedule = %+v", far)
	}
}
