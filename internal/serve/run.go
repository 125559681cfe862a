package serve

import (
	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/sim/batch"
	"repro/internal/sim/fault"
)

// Run describes one simulation run once for both engines: the instance
// with its scheduler, the algorithm, the round cap, the fault plan and the
// churn overlay's key. Its two loaders — World for the scalar sim.World
// engine, and the lane loader behind Job's Lane for a lane of a lockstep
// batch.Engine — are the only code that knows the loading order: the cap
// is resolved first (faults are planned over it), the churn overlay is
// bound before AddLane (so the engine cross-checks its graph), and agents,
// worlds and overlays come from the worker's pools (gather.SweepState;
// nil state builds fresh). The sweeps over named algorithms — gathersim,
// sweepd, the hunter and experiments E19–E22 — load their jobs through
// Job, so a run means the same thing on every surface and both engines.
type Run struct {
	// Scenario derives the run's instance — IDs, positions and a fresh
	// scheduler (schedulers carry per-run state) — on the worker that
	// loads it. A scenario shared read-only by every job may simply be
	// returned.
	Scenario  func() (*gather.Scenario, error)
	Algo      string
	Radius    int        // hopmeet radius; ignored by the other algorithms
	MaxRounds int        // round cap; 0 = the algorithm-derived Scenario.AlgoCap
	Faults    fault.Spec // fault class, planned over the effective cap
	FaultSeed uint64     // the fault plan's stream
	Churn     float64    // per-round edge-churn probability; 0 = static graph
	ChurnSeed uint64     // the overlay's stream; with graph and Churn, its pool key
	// ChurnPerRun marks an overlay drawn for this run alone (ChurnSeed
	// differs between jobs). All lanes of a lockstep batch share one
	// overlay, so such a run has no Lane and always runs scalar.
	ChurnPerRun bool
}

// Job returns the runner job that loads the run on either engine, carrying
// meta back on its JobResult.
func (r Run) Job(meta any) runner.Job {
	j := runner.Job{Meta: meta, Build: func(_ uint64, state any) (*sim.World, int, error) {
		return r.World(state)
	}}
	if !r.ChurnPerRun || r.Churn == 0 {
		j.Lane = func(_ uint64, state any, e *batch.Engine) error { return r.lane(state, e) }
	}
	return j
}

// load derives the scenario and resolves the effective round cap.
func (r Run) load() (*gather.Scenario, int, error) {
	sc, err := r.Scenario()
	if err != nil {
		return nil, 0, err
	}
	cap, err := sc.AlgoCap(r.Algo, r.Radius)
	if err != nil {
		return nil, 0, err
	}
	if r.MaxRounds > 0 {
		cap = r.MaxRounds
	}
	return sc, cap, nil
}

// overlay returns the run's churn overlay from the worker's pool (fresh
// without one), or nil on a static graph.
func (r Run) overlay(g *graph.Graph, state any) *graph.Overlay {
	if r.Churn == 0 {
		return nil
	}
	if p := gather.OverlayPoolOf(state); p != nil {
		return p.Get(g, r.Churn, r.ChurnSeed)
	}
	return graph.NewOverlay(g, r.Churn, r.ChurnSeed)
}

// World loads the run into a scalar world, pooled in the state's arena,
// and returns it with the effective round cap.
func (r Run) World(state any) (*sim.World, int, error) {
	sc, cap, err := r.load()
	if err != nil {
		return nil, 0, err
	}
	w, err := sc.NewWorldIn(gather.ArenaOf(state), r.Algo, r.Radius)
	if err != nil {
		return nil, 0, err
	}
	if err := fault.Apply(w, sc.IDs, r.Faults.Plan(len(sc.IDs), cap, r.FaultSeed)); err != nil {
		return nil, 0, err
	}
	if ov := r.overlay(sc.G, state); ov != nil {
		if err := w.SetOverlay(ov); err != nil {
			return nil, 0, err
		}
	}
	return w, cap, nil
}

// lane loads the run as one lane of e, its agents pooled in the state's
// lane arena. A churned run never joins a batch of static lanes, nor a
// static run a churned batch: either returns batch.ErrOverlayMismatch,
// which batched runners take as a flush signal.
func (r Run) lane(state any, e *batch.Engine) error {
	sc, cap, err := r.load()
	if err != nil {
		return err
	}
	ov := r.overlay(sc.G, state)
	if ov != nil && e.Overlay() == nil && e.Lanes() > 0 {
		return batch.ErrOverlayMismatch
	}
	if err := e.SetOverlay(ov); err != nil {
		return err
	}
	agents, err := sc.NewAgentsIn(gather.LaneArenaOf(state), e.Lanes(), r.Algo, r.Radius)
	if err != nil {
		return err
	}
	lane, err := e.AddLane(sc.G, agents, sc.Positions, cap, sc.Sched)
	if err != nil {
		return err
	}
	return fault.ApplyLane(e, lane, sc.IDs, r.Faults.Plan(len(sc.IDs), cap, r.FaultSeed))
}
