package gather

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/sim"
)

// This file is the agent-layer half of lockstep batching: a scenario can
// hand out just its agent set (NewAgents / NewAgentsIn) so a batch engine
// lane can be loaded without constructing a scalar world, AlgoCap is the
// single source of the algorithm-derived round caps both execution paths
// use, and LaneArena / SweepState extend world pooling to per-lane agent
// sets.

// algoMk resolves a named algorithm to its per-robot agent constructor —
// the one registry behind both NewWorldIn and NewAgentsIn. radius is the
// hopmeet radius and ignored elsewhere. The error texts mirror the CLI
// contract ("unknown algorithm", beep's two-robot limit), so a batched
// sweep reports a bad arm identically to the scalar path.
func (s *Scenario) algoMk(algo string, radius int) (func(id int) sim.Agent, error) {
	n := s.G.N()
	switch algo {
	case "faster":
		return func(id int) sim.Agent { return NewFasterAgent(s.Cfg, n, id) }, nil
	case "uxs":
		return func(id int) sim.Agent { return NewUXSGAgent(s.Cfg, n, id) }, nil
	case "undispersed":
		return func(id int) sim.Agent { return NewUGAgent(n, id) }, nil
	case "hopmeet":
		return func(id int) sim.Agent { return NewHopMeetAgent(s.Cfg, radius, n, id) }, nil
	case "dessmark":
		return func(id int) sim.Agent { return NewDessmarkAgent(s.Cfg, n, id) }, nil
	case "beep":
		if len(s.IDs) > 2 {
			return nil, errTooManyForBeep
		}
		return func(id int) sim.Agent { return NewBeepAgent(s.Cfg, n, id) }, nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", algo)
}

// AlgoCap returns the algorithm-derived round cap for the named algorithm
// on this scenario — the caps gathersim and the batched sweeps share, so
// both execution paths always run a given (scenario, algorithm) pair for
// identical round budgets.
func (s *Scenario) AlgoCap(algo string, radius int) (int, error) {
	n := s.G.N()
	switch algo {
	case "faster", "dessmark":
		return s.Cfg.FasterBound(n) + 10, nil
	case "uxs", "beep":
		return s.Cfg.UXSGatherBound(n) + 2, nil
	case "undispersed":
		return R(n) + 2, nil
	case "hopmeet":
		return s.Cfg.HopDuration(radius, n) + 2, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", algo)
}

// NewAgents builds the scenario's robot set for the named algorithm
// without a world — the agent-layer entry point of the lockstep batch
// path: the caller loads the agents into a batch engine lane with the
// scenario's positions and scheduler.
func (s *Scenario) NewAgents(algo string, radius int) ([]sim.Agent, error) {
	return s.NewAgentsIn(nil, 0, algo, radius)
}

// NewAgentsIn is NewAgents built in the lane arena's slot (nil arena =
// fresh): when the slot's shape key matches — same algorithm, frozen
// graph, robot count, config and radius — the pooled agents are rewound
// to constructor state via sim.Resettable, otherwise fresh agents are
// constructed and adopted. Like world pooling, lane pooling is
// bit-transparent: the equivalence suite pins pooled lanes to fresh
// results.
func (s *Scenario) NewAgentsIn(a *LaneArena, lane int, algo string, radius int) ([]sim.Agent, error) {
	mk, err := s.algoMk(algo, radius)
	if err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if a == nil {
		agents := make([]sim.Agent, len(s.IDs))
		for i, id := range s.IDs {
			agents[i] = mk(id)
		}
		return agents, nil
	}
	for len(a.slots) <= lane {
		a.slots = append(a.slots, laneSlot{})
	}
	slot := &a.slots[lane]
	key := arenaKey{algo: algo, g: s.G, k: len(s.IDs), cfg: s.Cfg, radius: radius}
	if slot.pooled && slot.key == key {
		for i, id := range s.IDs {
			slot.agents[i].(sim.Resettable).Reset(id)
		}
		return slot.agents, nil
	}
	agents := make([]sim.Agent, len(s.IDs))
	pooled := true
	for i, id := range s.IDs {
		agents[i] = mk(id)
		if _, ok := agents[i].(sim.Resettable); !ok {
			pooled = false
		}
	}
	slot.agents, slot.key, slot.pooled = agents, key, pooled
	return agents, nil
}

// LaneArena is the lane-granular counterpart of Arena: a worker-owned
// pool of agent sets, one slot per batch-engine lane. A batched sweep
// worker keeps one LaneArena next to its pooled batch engine; slot l is
// rewound (sim.Resettable) whenever lane l of the next batch has the same
// shape key, which is the common case when consecutive jobs share an
// instance. Not safe for concurrent use; slot agents are invalidated by
// the next NewAgentsIn on the same slot.
type LaneArena struct {
	slots []laneSlot
}

// laneSlot is one lane's pooled agent set and its shape key.
type laneSlot struct {
	agents []sim.Agent
	key    arenaKey
	pooled bool // every agent implements sim.Resettable
}

// NewLaneArena returns an empty lane arena.
func NewLaneArena() *LaneArena { return &LaneArena{} }

// LaneArenaOf coerces a runner worker-state value into a lane arena,
// unwrapping a SweepState. nil or a foreign type yields nil — "construct
// fresh" — like ArenaOf.
func LaneArenaOf(state any) *LaneArena {
	switch v := state.(type) {
	case *LaneArena:
		return v
	case *SweepState:
		return v.Lanes
	}
	return nil
}

// OverlayPool is the worker-owned cache of the churn overlay: one
// graph.Overlay keyed by (graph, rate, seed), rewound on every hit. A
// sweep's jobs over one instance all ask for the same key, so the scalar
// path replays identical churn per job and the batch path hands every
// lane the same pointer — which is what Engine.SetOverlay requires to
// keep the lanes in one batch. Get rewinds eagerly; both engines also
// rewind a non-fresh overlay at their round 0, so an interleaved run on
// the same worker can never leak advanced churn into the next one.
type OverlayPool struct {
	ov *graph.Overlay
}

// NewOverlayPool returns an empty overlay pool.
func NewOverlayPool() *OverlayPool { return &OverlayPool{} }

// Get returns the pooled overlay for (g, rate, seed), rewound to round
// zero — building a fresh one only when the key changes (NewOverlay costs
// a BFS; sweeps hit the pooled path on every job after the first).
func (p *OverlayPool) Get(g *graph.Graph, rate float64, seed uint64) *graph.Overlay {
	if p.ov != nil && p.ov.Base() == g && p.ov.Rate() == rate && p.ov.Seed() == seed {
		p.ov.Reset()
		return p.ov
	}
	p.ov = graph.NewOverlay(g, rate, seed)
	return p.ov
}

// OverlayPoolOf coerces a runner worker-state value into an overlay pool,
// unwrapping a SweepState. nil or a foreign type yields nil — callers
// then build fresh overlays — like ArenaOf.
func OverlayPoolOf(state any) *OverlayPool {
	switch v := state.(type) {
	case *OverlayPool:
		return v
	case *SweepState:
		return v.Overlays
	}
	return nil
}

// SweepState bundles the scalar world arena, the lane arena and the
// overlay pool into one runner worker state, so sweeps whose jobs mix
// execution paths — batched jobs next to scalar-only ones, or a
// batch-capable runner running in scalar mode — keep full pooling on
// both. ArenaOf, LaneArenaOf and OverlayPoolOf all unwrap it, so job code
// threads the state through unconditionally.
type SweepState struct {
	Arena    *Arena
	Lanes    *LaneArena
	Overlays *OverlayPool
}

// NewSweepState returns a sweep state with empty pools.
func NewSweepState() *SweepState {
	return &SweepState{Arena: NewArena(), Lanes: NewLaneArena(), Overlays: NewOverlayPool()}
}
