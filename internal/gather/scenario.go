package gather

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
	"repro/internal/uxs"
)

// Scenario is a complete gathering instance: graph, robot IDs, starting
// positions and shared configuration.
//
// Sharing: G is a frozen (immutable) graph and IDs/Positions/Cfg are
// read-only by convention, so one Scenario value can back any number of
// concurrent worlds — parallel sweeps build the instance once and
// reference it from every job. Only the scheduler is per-run state; use
// WithScheduler to derive per-job variants of a shared instance.
type Scenario struct {
	G         *graph.Graph
	IDs       []int
	Positions []int
	Cfg       Config
	// Sched, when non-nil, is installed on every world the scenario
	// builds (Run, NewWorld and NewWorldIn all honor it); nil keeps the
	// paper's fully-synchronous model. Schedulers carry per-run state, so a
	// Scenario with a stateful Sched (SemiSync, Adversarial) builds one
	// world per scheduler instance: parallel sweeps derive a per-job copy
	// via WithScheduler instead of sharing one stateful scheduler.
	Sched sim.Scheduler
}

// WithScheduler returns a shallow copy of s carrying the given scheduler.
// The copy shares the frozen graph, IDs, positions and config with s (all
// read-only), so parallel jobs can derive per-run scenarios from one
// shared instance without rebuilding anything.
func (s *Scenario) WithScheduler(sched sim.Scheduler) *Scenario {
	c := *s
	c.Sched = sched
	return &c
}

// Validate checks the instance is well-formed.
func (s *Scenario) Validate() error {
	if s.G == nil || s.G.N() == 0 {
		return fmt.Errorf("gather: scenario without a graph")
	}
	if len(s.IDs) != len(s.Positions) {
		return fmt.Errorf("gather: %d IDs but %d positions", len(s.IDs), len(s.Positions))
	}
	if len(s.IDs) == 0 {
		return fmt.Errorf("gather: no robots")
	}
	seen := make(map[int]bool, len(s.IDs))
	for i, id := range s.IDs {
		if id < 1 {
			return fmt.Errorf("gather: ID %d out of range", id)
		}
		if seen[id] {
			return fmt.Errorf("gather: duplicate ID %d", id)
		}
		seen[id] = true
		if p := s.Positions[i]; p < 0 || p >= s.G.N() {
			return fmt.Errorf("gather: robot %d at invalid node %d", id, p)
		}
	}
	return nil
}

// Certify pins the scenario's UXS length to one verified to cover its
// graph from every start node (see uxs.Certify), so the Theorem 6 and
// Step 7 guarantees hold unconditionally in scaled mode.
func (s *Scenario) Certify() {
	s.Cfg.UXSLen = uxs.Certify(s.G, s.Cfg.UXSMode).Len()
}

// Dispersed reports whether every node holds at most one robot.
func (s *Scenario) Dispersed() bool {
	seen := make(map[int]bool, len(s.Positions))
	for _, p := range s.Positions {
		if seen[p] {
			return false
		}
		seen[p] = true
	}
	return true
}

// MinPairDistance returns the smallest hop distance between two robots
// (0 when two share a node), or -1 with fewer than two robots.
func (s *Scenario) MinPairDistance() int {
	if len(s.Positions) < 2 {
		return -1
	}
	best := -1
	for i, p := range s.Positions {
		d := s.G.BFSDistances(p)
		for j, q := range s.Positions {
			if i == j {
				continue
			}
			if best < 0 || d[q] < best {
				best = d[q]
			}
		}
	}
	return best
}

// NewWorld returns a simulator world loaded with the named algorithm's
// robots (faster, uxs, undispersed, hopmeet, dessmark or beep; radius is
// the hopmeet radius and ignored elsewhere), for callers that step, trace
// or inspect the run themselves. NewWorldIn is its pooled form.
func (s *Scenario) NewWorld(algo string, radius int) (*sim.World, error) {
	return s.NewWorldIn(nil, algo, radius)
}

// Run executes the named algorithm for at most maxRounds rounds and returns
// the run summary: faster is Faster-Gathering (Theorems 12 and 16), uxs the
// §2.1 UXS gathering (Theorem 6, and via Result.FirstGatherRound the
// gathering-without-detection baseline), undispersed Theorem 8's
// Undispersed-Gathering, hopmeet the standalone i-Hop-Meeting of Lemmas 9
// and 10, dessmark the iterated-deepening baseline [17] and beep the
// two-robot beeping-model algorithm [21].
func (s *Scenario) Run(algo string, radius, maxRounds int) (sim.Result, error) {
	w, err := s.NewWorld(algo, radius)
	if err != nil {
		return sim.Result{}, err
	}
	return w.Run(maxRounds), nil
}
