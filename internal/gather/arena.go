package gather

import (
	"repro/internal/graph"
	"repro/internal/sim"
)

// Arena is a worker-owned pool of simulation state: one long-lived
// sim.World plus the agent set loaded into it. Sweeps that run thousands
// of short jobs hand each runner worker an Arena
// (runner.WithWorkerState(func(int) any { return gather.NewArena() })) and
// build every job's world *in* it via Scenario.NewWorldIn; when
// consecutive jobs share the arena's shape — same frozen graph,
// algorithm, robot count and config — the world is rewound
// with World.Reset and the agents with sim.Resettable.Reset instead of
// being reallocated, which removes per-job setup cost entirely (zero
// allocations on the engine side). On any shape change the arena falls
// back to fresh construction and adopts the new shape, so pooled builders
// are always safe to call: the pooling is an optimization, never a
// constraint.
//
// An Arena is NOT safe for concurrent use and backs at most one live world
// at a time: the world returned by a pooled builder is invalidated by the
// next builder call on the same arena. Pooling is bit-transparent — a
// pooled run produces exactly the results of a fresh one (the golden suite
// pins this) — so results never depend on which worker, or which arena
// history, a job lands on.
type Arena struct {
	world  *sim.World
	agents []sim.Agent
	key    arenaKey
	pooled bool // every agent implements sim.Resettable
}

// arenaKey identifies the shape an arena currently holds. Two builds with
// equal keys are guaranteed interchangeable up to Reset: the graph pointer
// pins the (immutable) topology, and algo/radius/cfg/k pin the agent
// construction inputs.
type arenaKey struct {
	algo   string
	g      *graph.Graph
	k      int
	cfg    Config
	radius int
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// ArenaOf coerces a runner worker-state value into an arena, unwrapping a
// SweepState (the combined scalar+lane worker state of batched sweeps). A
// nil state (runner without WithWorkerState) or a foreign type yields nil,
// which every pooled builder treats as "construct fresh" — so job code can
// thread the state through unconditionally.
func ArenaOf(state any) *Arena {
	switch v := state.(type) {
	case *Arena:
		return v
	case *SweepState:
		return v.Arena
	}
	return nil
}

// NewWorldIn is NewWorld built inside the arena (nil = fresh): it reuses
// the arena's world and agents when the shape key matches, reuses just the
// world (grow-only Reset) when only the graph matches, and constructs from
// scratch otherwise. The per-robot constructors come from algoMk, shared
// with the lane path (NewAgentsIn), so the two engines can never drift
// apart on construction inputs. The scenario's scheduler (nil = FullSync)
// is installed in every case.
func (s *Scenario) NewWorldIn(a *Arena, algo string, radius int) (*sim.World, error) {
	mk, err := s.algoMk(algo, radius)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if a == nil {
		a = &Arena{}
	}
	key := arenaKey{algo: algo, g: s.G, k: len(s.IDs), cfg: s.Cfg, radius: radius}
	if a.pooled && a.key == key {
		for i, id := range s.IDs {
			a.agents[i].(sim.Resettable).Reset(id)
		}
		if err := a.world.Reset(a.agents, s.Positions); err != nil {
			return nil, err
		}
		a.world.SetScheduler(s.Sched)
		return a.world, nil
	}
	agents := make([]sim.Agent, len(s.IDs))
	pooled := true
	for i, id := range s.IDs {
		agents[i] = mk(id)
		if _, ok := agents[i].(sim.Resettable); !ok {
			pooled = false
		}
	}
	w := a.world
	if w != nil && w.Graph() == s.G {
		// Same frozen graph, different shape: the engine state still fits
		// (grow-only), only the agents had to be rebuilt.
		err = w.Reset(agents, s.Positions)
	} else {
		w, err = sim.NewWorld(s.G, agents, s.Positions)
	}
	if err != nil {
		return nil, err
	}
	w.SetScheduler(s.Sched)
	a.world, a.agents, a.key, a.pooled = w, agents, key, pooled
	return w, nil
}
