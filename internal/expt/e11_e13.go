package expt

import (
	"fmt"
	"io"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/runner"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:    "E11",
		Title: "Remark 13 ablation: known initial distance",
		Claim: "Knowing the smallest pairwise distance lets the algorithm jump to the right step and finish earlier",
		Run:   runE11,
	})
	register(Experiment{
		ID:    "E12",
		Title: "Remark 14 ablation: known maximum degree",
		Claim: "Knowing Delta shrinks hop-meeting cycles from sum 2(n-1)^j to sum 2*Delta^j",
		Run:   runE12,
	})
	register(Experiment{
		ID:    "E13",
		Title: "Baseline blow-up (Dessmark et al.)",
		Claim: "The O(D*Delta^D log l) baseline grows exponentially with distance, while Faster-Gathering's staged schedule does not",
		Run:   runE13,
	})
}

// E11: staged schedule vs the Remark 13 oracle for the same instance.
// Both jobs of a distance reference the identical shared instance (one
// frozen graph, built once from the case seed); the oracle job derives a
// shallow copy carrying the Remark 13 config.
func runE11(w io.Writer, o Options) error {
	n := 8
	if !o.Quick {
		n = 10
	}
	type e11meta struct {
		d     int
		found bool
	}
	instance := func(d int, caseSeed uint64) (*gather.Scenario, bool) {
		rng := graph.NewRNG(caseSeed)
		g := graph.Path(n).WithPermutedPorts(rng)
		u, v, ok := place.PairAtDistance(g, d, rng)
		if !ok {
			return nil, false
		}
		sc := &gather.Scenario{G: g, IDs: []int{1, 2}, Positions: []int{u, v}}
		sc.Certify()
		return sc, true
	}
	dists := []int{1, 2, 3, 4}
	var jobs []runner.Job
	for di, d := range dists {
		d := d
		sc, found := instance(d, runner.JobSeed(o.Seed+11, di))
		mS, mO := &e11meta{d: d, found: found}, &e11meta{d: d, found: found}
		if !found {
			jobs = append(jobs,
				runner.Job{Meta: mS, Build: func(uint64, any) (*sim.World, int, error) { return nil, 0, nil }},
				runner.Job{Meta: mO, Build: func(uint64, any) (*sim.World, int, error) { return nil, 0, nil }})
			continue
		}
		scO := *sc // shallow copy: same frozen graph, oracle config
		scO.Cfg = gather.Config{KnownDistance: d, UXSLen: sc.Cfg.UXSLen}
		jobs = append(jobs,
			runner.Job{Meta: mS, Build: func(uint64, any) (*sim.World, int, error) {
				world, err := sc.NewWorld("faster", 0)
				return world, sc.Cfg.FasterBound(n) + 10, err
			}},
			runner.Job{Meta: mO, Build: func(uint64, any) (*sim.World, int, error) {
				world, err := scO.NewWorld("faster", 0)
				return world, scO.Cfg.FasterBound(n) + 10, err
			}})
	}
	results, err := sweep(o, o.Seed+11, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("distance", "staged-rounds", "oracle-rounds", "saving")
	allFaster := true
	for di, d := range dists {
		rS, rO := results[2*di], results[2*di+1]
		if !rS.Meta.(*e11meta).found {
			continue
		}
		if !rS.Res.DetectionCorrect || !rO.Res.DetectionCorrect {
			return fmt.Errorf("E11: d=%d: detection failed", d)
		}
		saving := float64(rS.Res.Rounds) / float64(rO.Res.Rounds)
		tb.Add(d, rS.Res.Rounds, rO.Res.Rounds, saving)
		if rO.Res.Rounds >= rS.Res.Rounds {
			allFaster = false
		}
	}
	tb.Render(w)
	verdict(w, allFaster, "the oracle schedule is strictly faster at every distance")
	return nil
}

// E12: hop-meeting schedule with and without knowledge of Delta on the
// cycle (Delta = 2).
func runE12(w io.Writer, o Options) error {
	sizes := sweepSizes(o, []int{8, 12}, []int{8, 12, 16, 20})
	type e12meta struct {
		n, i  int
		found bool
	}
	var jobs []runner.Job
	for _, n := range sizes {
		for _, i := range []int{2, 3} {
			n, i := n, i
			m := &e12meta{n: n, i: i}
			jobs = append(jobs, runner.Job{Meta: m,
				Build: func(seed uint64, _ any) (*sim.World, int, error) {
					rng := graph.NewRNG(seed)
					g := graph.Cycle(n).WithPermutedPorts(rng)
					u, v, ok := place.PairAtDistance(g, i, rng)
					if !ok {
						return nil, 0, nil
					}
					m.found = true
					abl := gather.Config{KnownMaxDegree: 2}
					sc := &gather.Scenario{G: g, IDs: []int{1, 2}, Positions: []int{u, v}, Cfg: abl}
					world, err := sc.NewWorld("hopmeet", i)
					return world, abl.HopDuration(i, n) + 1, err
				}})
		}
	}
	results, err := sweep(o, o.Seed+12, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("n", "radius", "generic-duration", "delta-duration", "shrink", "still-meets")
	allOK := true
	for _, r := range results {
		m := r.Meta.(*e12meta)
		if !m.found {
			continue
		}
		generic := gather.Config{}
		abl := gather.Config{KnownMaxDegree: 2}
		met := r.Res.FirstMeetRound >= 0
		shrink := float64(generic.HopDuration(m.i, m.n)) / float64(abl.HopDuration(m.i, m.n))
		tb.Add(m.n, m.i, generic.HopDuration(m.i, m.n), abl.HopDuration(m.i, m.n), shrink, met)
		if !met || shrink <= 1 {
			allOK = false
		}
	}
	tb.Render(w)
	verdict(w, allOK, "Delta-aware cycles are shorter and still guarantee the meeting")
	return nil
}

// E13: the baseline's exponential growth with distance on a high-degree
// graph, against Faster-Gathering on the same instances.
func runE13(w io.Writer, o Options) error {
	n := 8
	if !o.Quick {
		n = 9
	}
	type e13meta struct {
		d     int
		found bool
	}
	// Lollipop: a clique with a tail — high degree near the clique
	// makes each deeper baseline phase Delta times longer. IDs 1,2 never
	// explore simultaneously: distance-d pairs meet only in the radius-d
	// phase, isolating the growth law.
	instance := func(d int, caseSeed uint64) (*gather.Scenario, bool) {
		rng := graph.NewRNG(caseSeed)
		g := graph.Lollipop(n/2, n-n/2).WithPermutedPorts(rng)
		u, v, ok := place.PairAtDistance(g, d, rng)
		if !ok {
			return nil, false
		}
		return &gather.Scenario{G: g, IDs: []int{1, 2}, Positions: []int{u, v}}, true
	}
	dists := []int{1, 2, 3}
	var jobs []runner.Job
	for di, d := range dists {
		d := d
		sc, found := instance(d, runner.JobSeed(o.Seed+13, di))
		mB, mF := &e13meta{d: d, found: found}, &e13meta{d: d, found: found}
		if !found {
			jobs = append(jobs,
				runner.Job{Meta: mB, Build: func(uint64, any) (*sim.World, int, error) { return nil, 0, nil }},
				runner.Job{Meta: mF, Build: func(uint64, any) (*sim.World, int, error) { return nil, 0, nil }})
			continue
		}
		scF := *sc // shallow copy for the certified Faster arm
		scF.Certify()
		jobs = append(jobs,
			runner.Job{Meta: mB, Build: func(uint64, any) (*sim.World, int, error) {
				capRounds := 0
				for i := 1; i <= d+1; i++ {
					capRounds += sc.Cfg.HopDuration(i, sc.G.N()) + 1
				}
				world, err := sc.NewWorld("dessmark", 0)
				return world, capRounds + 10, err
			}},
			runner.Job{Meta: mF, Build: func(uint64, any) (*sim.World, int, error) {
				world, err := scF.NewWorld("faster", 0)
				return world, scF.Cfg.FasterBound(scF.G.N()) + 10, err
			}})
	}
	results, err := sweep(o, o.Seed+13, jobs)
	if err != nil {
		return err
	}
	tb := NewTable("distance", "baseline-rounds", "faster-rounds", "baseline/faster")
	var base []float64
	for di, d := range dists {
		rB, rF := results[2*di], results[2*di+1]
		if !rB.Meta.(*e13meta).found {
			continue
		}
		if !rB.Res.AllTerminated || !rF.Res.DetectionCorrect {
			return fmt.Errorf("E13: d=%d: run failed", d)
		}
		tb.Add(d, rB.Res.Rounds, rF.Res.Rounds, float64(rB.Res.Rounds)/float64(rF.Res.Rounds))
		base = append(base, float64(rB.Res.Rounds))
	}
	tb.Render(w)
	growing := len(base) >= 2
	for i := 1; i < len(base); i++ {
		if base[i] <= 2*base[i-1] {
			growing = false
		}
	}
	verdict(w, growing, "baseline rounds grow by more than 2x per extra hop of distance (exponential law)")
	return nil
}
