package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
)

// ExecConfig sets the execution resources for one sweep. Both knobs are
// output-invariant: the runner's determinism contract (per-job seeds from
// submission index, lockstep batching proven bit-transparent) means
// response bytes are identical at every Parallel and Batch setting — the
// existing CLI determinism gates, replayed through the service path by
// the conformance suite.
type ExecConfig struct {
	Parallel int // worker-pool size; 0 selects GOMAXPROCS
	Batch    int // lockstep batch width; 0 routes the scalar path
}

// Row shapes. Field order is the wire order (encoding/json preserves
// struct order), part of the byte-identity contract with gathersim
// -ndjson; do not reorder.

// headerRow opens every response: the canonical request that produced it
// (so a saved response is replayable) and the shared instance it ran on.
// Diameter is null above CertifyMaxNodes, where the all-pairs BFS is
// infeasible.
type headerRow struct {
	Spec     json.RawMessage `json:"spec"`
	Graph    string          `json:"graph"`
	Diameter *int            `json:"diameter"`
}

// seedRow is one seed's outcome — the NDJSON form of the CLI batch
// table's seed/rounds/gather/detect/moves columns.
type seedRow struct {
	Seed   uint64 `json:"seed"`
	Rounds int    `json:"rounds"`
	Gather bool   `json:"gather"`
	Detect bool   `json:"detect"`
	Moves  int64  `json:"moves"`
}

// crashRow replaces a seedRow when the algorithm legitimately panicked
// outside its model (e.g. under an adversarial scheduler). The one-line
// message is deterministic, so crash rows diff clean across runs; stacks
// never enter the response.
type crashRow struct {
	Seed  uint64 `json:"seed"`
	Crash string `json:"crash"`
}

// aggregateRow closes every response with the batch totals the CLI's
// aggregate line reports.
type aggregateRow struct {
	Aggregate bool  `json:"aggregate"`
	Seeds     int   `json:"seeds"`
	Detected  int   `json:"detected"`
	Crashed   int   `json:"crashed"`
	Rounds    int64 `json:"rounds"`
	Moves     int64 `json:"moves"`
}

// Sweep is an executed sweep request: the shared instance and one runner
// result per seed, in seed order (JobResult.Meta is the row seed).
type Sweep struct {
	Graph   *graph.Graph
	Results []runner.JobResult
	Stats   runner.Stats
	Workers int // the runner's pool size
}

// ExecuteSweep runs the request's seed sweep. The sweep shape is ONE
// frozen graph (and its UXS certification) built from the base seed and
// shared read-only by every job; each job draws its own IDs, placement
// and scheduler from its row seed (RowScenario) and loads through a Run
// description on pooled per-worker state. gathersim -seeds and -ndjson and
// sweepd all execute through here and differ only in rendering, which is
// what makes service and CLI output byte-identical by construction — and
// the conformance suite pins it by diff, not by trust.
//
// A canceled ctx aborts between job groups (runner.RunBatchedCtx) and
// surfaces as ctx's error with no partial result. Per-seed errors stay on
// their JobResults for the renderer to judge.
func ExecuteSweep(ctx context.Context, req *SweepRequest, cfg ExecConfig) (*Sweep, error) {
	g, err := req.wl.Build(graph.NewRNG(req.Seed))
	if err != nil {
		return nil, err
	}
	shared := &gather.Scenario{G: g}
	CertifyScenario(shared)

	jobs := make([]runner.Job, req.Seeds)
	for i := range jobs {
		scSeed := req.Seed + uint64(i)
		jobs[i] = Run{
			Scenario: func() (*gather.Scenario, error) {
				return RowScenario(g, shared.Cfg, req.Placement, req.K, req.Sched, scSeed)
			},
			Algo: req.Algo, Radius: req.Radius, MaxRounds: req.MaxRounds,
			// The fault plan is per-run (row seed); churn is per-instance —
			// one overlay for the whole request, so every row and every
			// lane of a batch sees the same edge weather.
			Faults: req.fs, FaultSeed: scSeed ^ gather.FaultSeedSalt,
			Churn: req.Churn, ChurnSeed: req.Seed ^ gather.ChurnSeedSalt,
		}.Job(scSeed)
	}

	r := runner.New(cfg.Parallel).WithWorkerState(func(int) any { return gather.NewSweepState() })
	sw := &Sweep{Graph: g, Workers: r.Workers()}
	if cfg.Batch > 0 {
		sw.Results, sw.Stats = r.RunBatchedCtx(ctx, req.Seed, jobs, cfg.Batch)
	} else {
		sw.Results, sw.Stats = r.RunCtx(ctx, req.Seed, jobs)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sw, nil
}

// ExecuteNDJSON runs the request's sweep (ExecuteSweep) and returns the
// complete NDJSON response body: one header row, one row per seed in seed
// order, one aggregate row. The body is materialized before it is
// returned: a response either exists in full or not at all, so cached
// replays are byte-identical and a client never sees a truncated stream.
// Errors other than contained per-seed crashes — which render as crash
// rows — fail the whole request, exactly like the CLI.
func ExecuteNDJSON(ctx context.Context, req *SweepRequest, cfg ExecConfig) ([]byte, error) {
	sw, err := ExecuteSweep(ctx, req, cfg)
	if err != nil {
		return nil, err
	}
	return renderNDJSON(req, sw.Graph, sw.Results, sw.Stats)
}

// renderNDJSON assembles the response body from a finished batch.
func renderNDJSON(req *SweepRequest, g *graph.Graph, results []runner.JobResult, st runner.Stats) ([]byte, error) {
	var buf bytes.Buffer
	head := headerRow{Spec: req.Canonical(), Graph: g.String()}
	if d, ok := Diameter(g); ok {
		head.Diameter = &d
	}
	if err := writeRow(&buf, head); err != nil {
		return nil, err
	}
	detected, crashed := 0, 0
	for _, res := range results {
		seed := res.Meta.(uint64)
		if res.Err != nil {
			// Only a contained panic (recognizable by its captured stack)
			// is a per-seed outcome; any other error is a configuration or
			// engine failure and fails the whole request, like the CLI.
			if res.Stack == "" {
				return nil, fmt.Errorf("seed %d: %w", seed, res.Err)
			}
			crashed++
			if err := writeRow(&buf, crashRow{Seed: seed, Crash: res.Err.Error()}); err != nil {
				return nil, err
			}
			continue
		}
		if res.Res.DetectionCorrect {
			detected++
		}
		row := seedRow{Seed: seed, Rounds: res.Res.Rounds,
			Gather: res.Res.Gathered, Detect: res.Res.DetectionCorrect, Moves: res.Res.TotalMoves}
		if err := writeRow(&buf, row); err != nil {
			return nil, err
		}
	}
	agg := aggregateRow{Aggregate: true, Seeds: st.Jobs, Detected: detected,
		Crashed: crashed, Rounds: st.Rounds, Moves: st.Moves}
	if err := writeRow(&buf, agg); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// writeRow appends one NDJSON line.
func writeRow(buf *bytes.Buffer, row any) error {
	b, err := json.Marshal(row)
	if err != nil {
		return err
	}
	buf.Write(b)
	buf.WriteByte('\n')
	return nil
}
