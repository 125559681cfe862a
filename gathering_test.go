package gathering

import "testing"

// The facade tests double as executable documentation: they exercise the
// library exactly the way README.md tells users to.

func TestQuickstartFlow(t *testing.T) {
	g := Cycle(10)
	rng := NewRNG(1)
	g = g.WithPermutedPorts(rng)
	k := 6 // > n/2: the paper's O(n^3) regime
	sc := &Scenario{
		G:         g,
		IDs:       AssignIDs(k, g.N(), rng),
		Positions: MaxMinDispersed(g, k, rng),
	}
	sc.Certify()
	res, err := sc.Run("faster", 0, sc.Cfg.FasterBound(g.N())+10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DetectionCorrect {
		t.Fatalf("quickstart flow failed: %+v", res)
	}
}

func TestFacadeGenerators(t *testing.T) {
	rng := NewRNG(2)
	graphs := []*Graph{
		Path(5), Cycle(5), Complete(4), Star(5), Grid(2, 3), Torus(3, 3),
		Hypercube(3), Lollipop(3, 2), Maze(3, 3, 2, rng),
		RandomTree(6, rng), MustRandomConnected(6, 8, rng),
	}
	for i, g := range graphs {
		if err := g.Validate(); err != nil {
			t.Errorf("generator %d: %v", i, err)
		}
	}
	for _, f := range AllFamilies() {
		if err := FromFamily(f, 8, rng).Validate(); err != nil {
			t.Errorf("family %s: %v", f, err)
		}
	}
}

func TestFacadePlacements(t *testing.T) {
	rng := NewRNG(3)
	g := Grid(3, 4)
	if len(RandomPlacement(g, 5, rng)) != 5 {
		t.Error("RandomPlacement size")
	}
	if len(RandomDispersed(g, 5, rng)) != 5 {
		t.Error("RandomDispersed size")
	}
	if len(Clustered(g, 6, 2, rng)) != 6 {
		t.Error("Clustered size")
	}
	pos := MaxMinDispersed(g, 4, rng)
	if MinPairwise(g, pos) < 1 {
		t.Error("MaxMinDispersed not dispersed")
	}
	if _, _, ok := PairAtDistance(g, 3, rng); !ok {
		t.Error("no distance-3 pair on a 3x4 grid")
	}
}

func TestFacadeScheduleConstants(t *testing.T) {
	n := 12
	if R(n) != R1(n)+2*n {
		t.Error("R != R1 + 2n")
	}
	if BitBudget(n) < 1 || MaxID(n) != n*n*n {
		t.Error("ID range constants inconsistent")
	}
}

func TestModesDistinct(t *testing.T) {
	if Scaled == Faithful {
		t.Error("modes must differ")
	}
}

func TestFacadeRunner(t *testing.T) {
	jobs := make([]Job, 6)
	for i := range jobs {
		n := 8 + i
		jobs[i] = Job{Meta: n, Build: func(seed uint64, _ any) (*World, int, error) {
			rng := NewRNG(seed)
			g := Cycle(n)
			g = g.WithPermutedPorts(rng)
			k := n/2 + 1
			sc := &Scenario{G: g, IDs: AssignIDs(k, n, rng), Positions: MaxMinDispersed(g, k, rng)}
			sc.Certify()
			w, err := sc.NewWorld("faster", 0)
			return w, sc.Cfg.FasterBound(n) + 10, err
		}}
	}
	serial, _ := NewRunner(1).Run(9, jobs)
	parallel, st := NewRunner(4).Run(9, jobs)
	for i := range jobs {
		if serial[i].Err != nil || !serial[i].Res.DetectionCorrect {
			t.Fatalf("job %d: %v %+v", i, serial[i].Err, serial[i].Res)
		}
		if serial[i].Res.Rounds != parallel[i].Res.Rounds || serial[i].Seed != parallel[i].Seed {
			t.Errorf("job %d: serial and parallel runs diverge", i)
		}
		if serial[i].Seed != JobSeed(9, i) {
			t.Errorf("job %d: unexpected seed", i)
		}
	}
	if st.Jobs != len(jobs) || st.Failed != 0 {
		t.Errorf("stats %+v", st)
	}
}
