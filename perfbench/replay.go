package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sim/batch"
	"repro/internal/sim/fault"
)

// tracedExecute is the traced twin of serve.ExecuteNDJSON on its lockstep
// path: the same public calls in the same order (ParseSweepRequest,
// graph.ParseWorkload → Workload.Build → CertifyScenario →
// runner.RunBatched with Lane closures over PlaceRobots, NewAgentsIn,
// Engine.AddLane and fault.ApplyLane, then Diameter and the NDJSON rows),
// with a span around each call. Its body must be byte-identical to
// ExecuteNDJSON's for the same request; the callers check that.
func tracedExecute(tr *tracer, id string, raw []byte, cfg serve.ExecConfig, st *sweepStats) ([]byte, error) {
	root := tr.begin("sweep", id, noParent)
	defer tr.end(root)

	var (
		req *serve.SweepRequest
		err error
	)
	tr.do("serve.parse", id, root, func() { req, err = serve.ParseSweepRequest(raw) })
	if err != nil {
		return nil, err
	}
	wl, err := graph.ParseWorkload(req.Workload)
	if err != nil {
		return nil, err
	}
	fs, err := fault.Parse(req.Faults)
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	tr.do("graph.build", id, root, func() { g, err = wl.Build(graph.NewRNG(req.Seed)) })
	if err != nil {
		return nil, err
	}
	shared := &gather.Scenario{G: g}
	tr.do("uxs.certify", id, root, func() { serve.CertifyScenario(shared) })
	sharedCfg := shared.Cfg

	runSpan := tr.begin("runner", id, root)
	book := newLaneBook()
	jobs := make([]runner.Job, req.Seeds)
	for i := range jobs {
		i, scSeed := i, req.Seed+uint64(i)
		jobs[i] = runner.Job{Meta: scSeed, Lane: func(_ uint64, state any, e *batch.Engine) (err error) {
			ls := tr.begin("lane", id, runSpan)
			defer tr.end(ls)
			book.lane(e, i)
			rng := graph.NewRNG(scSeed)
			var pos []int
			tr.do("place", id, ls, func() { pos, err = serve.PlaceRobots(g, req.Placement, req.K, rng) })
			if err != nil {
				return err
			}
			sc := &gather.Scenario{G: g, IDs: gather.AssignIDs(req.K, g.N(), rng), Positions: pos, Cfg: sharedCfg}
			if sc.Sched, err = serve.BuildSched(req.Sched, scSeed); err != nil {
				return err
			}
			cap, err := sc.AlgoCap(req.Algo, req.Radius)
			if err != nil {
				return err
			}
			if req.MaxRounds > 0 {
				cap = req.MaxRounds
			}
			if req.Churn > 0 {
				seed := req.Seed ^ gather.ChurnSeedSalt
				var ov *graph.Overlay
				if p := gather.OverlayPoolOf(state); p != nil {
					ov = p.Get(g, req.Churn, seed)
				} else {
					ov = graph.NewOverlay(g, req.Churn, seed)
				}
				if err := e.SetOverlay(ov); err != nil {
					return err
				}
			}
			var agents []sim.Agent
			tr.do("gather.agents", id, ls, func() {
				agents, err = sc.NewAgentsIn(gather.LaneArenaOf(state), e.Lanes(), req.Algo, req.Radius)
			})
			if err != nil {
				return err
			}
			book.robots(len(agents))
			var lane int
			tr.do("batch.add_lane", id, ls, func() { lane, err = e.AddLane(sc.G, agents, sc.Positions, cap, sc.Sched) })
			if err != nil {
				return err
			}
			plan := fs.Plan(req.K, cap, scSeed^gather.FaultSeedSalt)
			tr.do("fault.apply", id, ls, func() { err = fault.ApplyLane(e, lane, sc.IDs, plan) })
			return err
		}}
	}
	r := runner.New(cfg.Parallel).WithWorkerState(func(int) any { return gather.NewSweepState() })
	results, rst := r.RunBatched(req.Seed, jobs, cfg.Batch)
	tr.end(runSpan)
	st.add(rst, results, book, req.K, r.Workers())

	var (
		d  int
		ok bool
	)
	tr.do("graph.diameter", id, root, func() { d, ok = serve.Diameter(g) })
	var body []byte
	tr.do("serve.render", id, root, func() { body, err = render(req, g, d, ok, results, rst) })
	return body, err
}

// The NDJSON row shapes of serve.ExecuteNDJSON, field for field.
type (
	headerRow struct {
		Spec     json.RawMessage `json:"spec"`
		Graph    string          `json:"graph"`
		Diameter *int            `json:"diameter"`
	}
	seedRow struct {
		Seed   uint64 `json:"seed"`
		Rounds int    `json:"rounds"`
		Gather bool   `json:"gather"`
		Detect bool   `json:"detect"`
		Moves  int64  `json:"moves"`
	}
	crashRow struct {
		Seed  uint64 `json:"seed"`
		Crash string `json:"crash"`
	}
)

// render writes the response rows: header, one row per seed, aggregate.
func render(req *serve.SweepRequest, g *graph.Graph, d int, hasD bool, results []runner.JobResult, st runner.Stats) ([]byte, error) {
	var buf bytes.Buffer
	enc := func(row any) error {
		b, err := json.Marshal(row)
		buf.Write(b)
		buf.WriteByte('\n')
		return err
	}
	head := headerRow{Spec: req.Canonical(), Graph: g.String()}
	if hasD {
		head.Diameter = &d
	}
	if err := enc(head); err != nil {
		return nil, err
	}
	agg := aggregate{Aggregate: true, Seeds: st.Jobs, Rounds: st.Rounds, Moves: st.Moves}
	for _, res := range results {
		seed := res.Meta.(uint64)
		var err error
		switch {
		case res.Err != nil && res.Stack == "":
			return nil, fmt.Errorf("seed %d: %w", seed, res.Err)
		case res.Err != nil:
			agg.Crashed++
			err = enc(crashRow{Seed: seed, Crash: res.Err.Error()})
		default:
			if res.Res.DetectionCorrect {
				agg.Detected++
			}
			err = enc(seedRow{Seed: seed, Rounds: res.Res.Rounds, Gather: res.Res.Gathered,
				Detect: res.Res.DetectionCorrect, Moves: res.Res.TotalMoves})
		}
		if err != nil {
			return nil, err
		}
	}
	if err := enc(agg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// laneBook follows lanes into flushes: a Lane call that finds its
// engine empty starts a new flush.
type laneBook struct {
	mu       sync.Mutex
	flush    map[*batch.Engine]int // flush each engine is filling
	jobFlush map[int]int           // job index → its flush
	flushes  int
	robotN   int
}

func newLaneBook() *laneBook {
	return &laneBook{flush: map[*batch.Engine]int{}, jobFlush: map[int]int{}}
}

func (b *laneBook) lane(e *batch.Engine, job int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.Lanes() == 0 {
		b.flush[e] = b.flushes
		b.flushes++
	}
	b.jobFlush[job] = b.flush[e]
}

func (b *laneBook) robots(n int) {
	b.mu.Lock()
	b.robotN += n
	b.mu.Unlock()
}

// sweepStats accumulates runner and lockstep counts over traced sweeps.
type sweepStats struct {
	wall, work                  time.Duration
	workerWall                  time.Duration // Σ wall × workers
	jobs, failed                int
	roundWorlds, moves          int64
	robotRounds                 int64
	lanes, flushes, robotsBuilt int
	lockstepRounds, laneSlots   int64 // Σ longest lane; Σ longest lane × lanes
}

func (s *sweepStats) add(rst runner.Stats, results []runner.JobResult, b *laneBook, k, workers int) {
	s.wall += rst.Wall
	s.work += rst.Work
	s.workerWall += rst.Wall * time.Duration(workers)
	s.jobs += rst.Jobs
	s.failed += rst.Failed
	s.roundWorlds += rst.Rounds
	s.moves += rst.Moves
	s.robotRounds += rst.Rounds * int64(k)
	s.flushes += b.flushes
	s.robotsBuilt += b.robotN
	longest := make(map[int]int64)
	lanes := make(map[int]int64)
	for i, res := range results {
		f, ok := b.jobFlush[i]
		if !ok || res.Skipped {
			continue
		}
		s.lanes++
		lanes[f]++
		longest[f] = max(longest[f], int64(res.Res.Rounds))
	}
	for f, l := range longest {
		s.lockstepRounds += l
		s.laneSlots += l * lanes[f]
	}
}
