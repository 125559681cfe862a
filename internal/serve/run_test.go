package serve_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim/fault"
)

// TestRunEquivalence pins the run description's two loaders to each
// other: for every algorithm under every fault class, static and churned,
// the scalar runner (Build) and the lockstep runner (Lane) at widths 1 and
// 4 return equal per-job results on one small shared instance.
func TestRunEquivalence(t *testing.T) {
	const seeds = 4
	g, err := graph.BuildWorkload("cycle:6", graph.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	shared := &gather.Scenario{G: g}
	serve.CertifyScenario(shared)
	newRunner := func() *runner.Runner {
		return runner.New(2).WithWorkerState(func(int) any { return gather.NewSweepState() })
	}
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet", "dessmark", "beep"} {
		k := 3
		if algo == "beep" {
			k = 2 // the beeping-model algorithm is defined for two robots
		}
		for _, spec := range []string{"none", "crash:1", "recover:1,6@3", "byz:1"} {
			fs, err := fault.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, churn := range []float64{0, 0.2} {
				name := fmt.Sprintf("%s/%s/churn=%g", algo, spec, churn)
				jobs := make([]runner.Job, seeds)
				for i := range jobs {
					seed := uint64(10 + i)
					jobs[i] = serve.Run{
						Scenario: func() (*gather.Scenario, error) {
							return serve.RowScenario(g, shared.Cfg, "random", k, "full", seed)
						},
						Algo: algo, Radius: 2,
						Faults: fs, FaultSeed: seed ^ gather.FaultSeedSalt,
						Churn: churn, ChurnSeed: 7 ^ gather.ChurnSeedSalt,
					}.Job(seed)
					if jobs[i].Lane == nil {
						t.Fatalf("%s: a description with a shared overlay has no Lane", name)
					}
				}
				want, _ := newRunner().Run(1, jobs)
				for _, res := range want {
					if res.Err != nil && res.Stack == "" {
						t.Fatalf("%s: job failed to load: %v", name, res.Err)
					}
				}
				for _, width := range []int{1, 4} {
					got, _ := newRunner().RunBatched(1, jobs, width)
					for i := range want {
						if d := diffResult(want[i], got[i]); d != "" {
							t.Errorf("%s: job %d at width %d: %s", name, i, width, d)
						}
					}
				}
			}
		}
	}
}

// diffResult compares two job results on everything but timing and the
// panic stack's text (the two engines panic on different goroutine
// stacks; only whether a stack exists is part of the outcome).
func diffResult(a, b runner.JobResult) string {
	if a.Index != b.Index || a.Seed != b.Seed || a.Meta != b.Meta || a.Skipped != b.Skipped {
		return fmt.Sprintf("identity differs: %+v vs %+v", a, b)
	}
	if fmt.Sprint(a.Err) != fmt.Sprint(b.Err) || (a.Stack == "") != (b.Stack == "") {
		return fmt.Sprintf("error differs: %v vs %v", a.Err, b.Err)
	}
	if !reflect.DeepEqual(a.Res, b.Res) {
		return fmt.Sprintf("result differs:\n scalar %+v\n lane   %+v", a.Res, b.Res)
	}
	return ""
}

// TestRunPerRunChurnHasNoLane pins the engine choice for per-run overlays:
// lanes of a batch share one overlay, so a description whose overlay is
// drawn per run loads only as a scalar world — unless it has no churn.
func TestRunPerRunChurnHasNoLane(t *testing.T) {
	r := serve.Run{Algo: "faster", Churn: 0.2, ChurnPerRun: true}
	if j := r.Job(nil); j.Lane != nil || j.Build == nil {
		t.Errorf("per-run churn: Lane set %v, Build set %v; want scalar only", j.Lane != nil, j.Build != nil)
	}
	r.Churn = 0
	if j := r.Job(nil); j.Lane == nil {
		t.Error("per-run flag without churn lost its Lane")
	}
}
