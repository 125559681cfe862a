package expt

import (
	"fmt"
	"io"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/mapping"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(Experiment{
		ID:    "E17",
		Title: "Map-construction design ablation",
		Claim: "Tour-based frontier identification is O(n^3); the naive per-candidate strategy is O(n^4) — the gap that makes R1 = O(n^3) possible",
		Run:   runE17,
	})
	register(Experiment{
		ID:    "E18",
		Title: "Beeping-model gathering (two robots)",
		Claim: "Gathering with detection survives the weakest communication model [21]: anonymous beeps suffice for two robots",
		Run:   runE18,
	})
}

// mapJob returns a runner job that runs one mapping pair on the given
// (shared, frozen) instance until the builder finishes (the builder never
// issues Terminate, so the job stops on its Done signal). done/rounds are
// wired into meta for the collection phase.
type mapMeta struct {
	n, m   int
	done   func() bool
	rounds func() int
}

func mapJob(g *graph.Graph, naive bool) runner.Job {
	m := &mapMeta{}
	return runner.Job{Meta: m,
		Stop: func(*sim.World) bool { return m.done() },
		Build: func(uint64, any) (*sim.World, int, error) {
			m.n, m.m = g.N(), g.M()
			var (
				agents []sim.Agent
				budget int
			)
			if naive {
				f := mapping.NewNaiveFinderAgent(1, g.N(), 2)
				agents = []sim.Agent{f, mapping.NewTokenAgent(2, 1)}
				m.done, m.rounds = f.B.Done, f.B.Rounds
				budget = mapping.NaiveBudget(g.N())
			} else {
				f := mapping.NewFinderAgent(1, g.N(), 2)
				agents = []sim.Agent{f, mapping.NewTokenAgent(2, 1)}
				m.done, m.rounds = f.B.Done, f.B.Rounds
				budget = mapping.Budget(g.N())
			}
			world, err := sim.NewWorld(g, agents, []int{0, 0})
			return world, budget, err
		}}
}

// E17: measured rounds of the two map-construction strategies and their
// fitted growth exponents. Cycles maximize walk lengths (diameter n/2),
// exposing the asymptotic gap between one tour per probe and one walk per
// candidate per probe; small-diameter random graphs hide it. Both
// strategies reference the identical frozen instance (built once per n
// from the case seed, zero per-job graph construction).
func runE17(w io.Writer, o Options) error {
	sizes := sweepSizes(o, []int{8, 12, 16}, []int{8, 12, 16, 20, 24, 32})
	var jobs []runner.Job
	for ni, n := range sizes {
		rng := graph.NewRNG(runner.JobSeed(o.Seed+17, ni))
		g := graph.Cycle(n).WithPermutedPorts(rng)
		jobs = append(jobs, mapJob(g, false), mapJob(g, true))
	}
	results, err := sweep(o, o.Seed+17, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("n", "m", "tour-rounds", "naive-rounds", "naive/tour")
	var xs, tourYs, naiveYs []float64
	for ni := range sizes {
		mT := results[2*ni].Meta.(*mapMeta)
		mN := results[2*ni+1].Meta.(*mapMeta)
		if !mT.done() {
			return fmt.Errorf("E17 tour n=%d: map construction exceeded budget %d", mT.n, mapping.Budget(mT.n))
		}
		if !mN.done() {
			return fmt.Errorf("E17 naive n=%d: map construction exceeded budget %d", mN.n, mapping.NaiveBudget(mN.n))
		}
		tour, naive := mT.rounds(), mN.rounds()
		tb.Add(mT.n, mT.m, tour, naive, float64(naive)/float64(tour))
		xs = append(xs, float64(mT.n))
		tourYs = append(tourYs, float64(tour))
		naiveYs = append(naiveYs, float64(naive))
	}
	tb.Render(w)
	tourExp, _, err := stats.FitPowerLaw(xs, tourYs)
	if err != nil {
		return err
	}
	naiveExp, _, err := stats.FitPowerLaw(xs, naiveYs)
	if err != nil {
		return err
	}
	verdict(w, naiveExp > tourExp+0.4,
		"naive identification grows a full power faster: exponent %.2f vs tour-based %.2f", naiveExp, tourExp)
	verdict(w, tourExp <= 3.5, "tour-based construction stays within the O(n^3) shape (exponent %.2f)", tourExp)
	return nil
}

// E18: beeping-model gathering with detection across families and
// distances, plus the comparison against the message-passing algorithm on
// the same instances.
func runE18(w io.Writer, o Options) error {
	n := 7
	if !o.Quick {
		n = 8
	}
	type e18meta struct {
		fam   graph.Family
		d     int
		found bool
	}
	fams := []graph.Family{graph.FamPath, graph.FamCycle, graph.FamGrid, graph.FamRandom}
	// Both arms of a case reference one shared frozen instance, built once
	// from the case seed before submission.
	instance := func(fam graph.Family, d int, caseSeed uint64) (*gather.Scenario, bool) {
		rng := graph.NewRNG(caseSeed)
		g := graph.FromFamily(fam, n, rng)
		u, v, ok := place.PairAtDistance(g, d, rng)
		if !ok {
			return nil, false
		}
		sc := &gather.Scenario{G: g, IDs: []int{6, 11}, Positions: []int{u, v}}
		sc.Certify()
		return sc, true
	}
	var jobs []runner.Job
	ci := 0
	for _, fam := range fams {
		for _, d := range []int{1, 3} {
			sc, found := instance(fam, d, runner.JobSeed(o.Seed+18, ci))
			ci++
			mB, mM := &e18meta{fam: fam, d: d, found: found}, &e18meta{fam: fam, d: d, found: found}
			if !found {
				jobs = append(jobs,
					runner.Job{Meta: mB, Build: func(uint64, any) (*sim.World, int, error) { return nil, 0, nil }},
					runner.Job{Meta: mM, Build: func(uint64, any) (*sim.World, int, error) { return nil, 0, nil }})
				continue
			}
			jobs = append(jobs,
				runner.Job{Meta: mB, Build: func(uint64, any) (*sim.World, int, error) {
					world, err := sc.NewWorld("beep", 0)
					return world, sc.Cfg.UXSGatherBound(sc.G.N()) + 2, err
				}},
				runner.Job{Meta: mM, Build: func(uint64, any) (*sim.World, int, error) {
					world, err := sc.NewWorld("uxs", 0)
					return world, sc.Cfg.UXSGatherBound(sc.G.N()) + 2, err
				}})
		}
	}
	results, err := sweep(o, o.Seed+18, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("family", "distance", "beep-rounds", "msg-rounds", "detection")
	allOK := true
	for pi := 0; pi < len(results); pi += 2 {
		rB, rM := results[pi], results[pi+1]
		m := rB.Meta.(*e18meta)
		if !m.found {
			continue
		}
		tb.Add(string(m.fam), m.d, rB.Res.Rounds, rM.Res.Rounds, rB.Res.DetectionCorrect)
		if !rB.Res.DetectionCorrect || !rM.Res.DetectionCorrect {
			allOK = false
		}
	}
	tb.Render(w)
	verdict(w, allOK, "anonymous beeps suffice for two-robot gathering with detection on every instance")
	return nil
}
