package gather

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/sim/batch"
)

// batchCap returns the algorithm's AlgoCap, fatally on unknown names.
func batchCap(t *testing.T, sc *Scenario, algo string, radius int) int {
	t.Helper()
	cap, err := sc.AlgoCap(algo, radius)
	if err != nil {
		t.Fatal(err)
	}
	return cap
}

// addBatchLane loads one (scenario, algorithm, scheduler) run as a lane.
func addBatchLane(t *testing.T, e *batch.Engine, sc *Scenario, algo string, radius, cap int, sched sim.Scheduler) int {
	t.Helper()
	agents, err := sc.NewAgents(algo, radius)
	if err != nil {
		t.Fatal(err)
	}
	lane, err := e.AddLane(sc.G, agents, sc.Positions, cap, sched)
	if err != nil {
		t.Fatal(err)
	}
	return lane
}

// TestEngineGoldenBatch replays the cross-engine golden grid through the
// lockstep batch engine: every golden instance runs as W=4 replicated
// lanes of one pooled engine (Reset between instances, including across
// graph changes), all four lanes must agree, and the per-instance results
// must hash to the exact golden values the scalar engine is pinned to.
// This is the batch engine's bit-compatibility certificate.
func TestEngineGoldenBatch(t *testing.T) {
	const W = 4
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet"} {
		algo := algo
		t.Run(algo, func(t *testing.T) {
			radius := 0
			if algo == "hopmeet" {
				radius = 2
			}
			e := batch.NewEngine()
			h := fnv.New64a()
			for _, sc := range goldenInstances(algo) {
				e.Reset()
				cap := batchCap(t, sc, algo, radius)
				for l := 0; l < W; l++ {
					addBatchLane(t, e, sc, algo, radius, cap, nil)
				}
				e.Run()
				ref := e.Outcome(0)
				if ref.PanicVal != nil {
					t.Fatalf("golden lane panicked: %v", ref.PanicVal)
				}
				for l := 1; l < W; l++ {
					if got := e.Outcome(l); fmt.Sprint(got.Res) != fmt.Sprint(ref.Res) {
						t.Fatalf("replicated lane %d diverged:\nlane 0: %+v\nlane %d: %+v", l, ref.Res, l, got.Res)
					}
				}
				hashResult(h, ref.Res)
			}
			if got, want := h.Sum64(), engineGolden[algo]; got != want {
				t.Errorf("batch engine drift: %s hash = %#x, want %#x (the lockstep engine no longer matches the scalar engine bit-for-bit)", algo, got, want)
			}
		})
	}
}

// TestBatchMatchesScalarAcrossSchedulers is the batched counterpart of
// TestPooledMatchesFreshAcrossSchedulers: every algorithm under every
// scheduler family, run both as a fresh scalar world (SafeRun) and as two
// identically-seeded lanes of a batch engine. Completed runs must agree on
// every Result field; runs the scheduler legitimately breaks (map
// construction outside the synchronous model) must panic with the same
// value on both paths.
func TestBatchMatchesScalarAcrossSchedulers(t *testing.T) {
	for _, algo := range []string{"faster", "uxs", "undispersed", "hopmeet", "dessmark"} {
		for _, spec := range []string{"full", "semi:0.6", "adv:2"} {
			algo, spec := algo, spec
			t.Run(algo+"/"+spec, func(t *testing.T) {
				radius := 0
				if algo == "hopmeet" {
					radius = 2
				}
				e := batch.NewEngine()
				for i, sc := range goldenInstances(algo)[:6] {
					mkSched := func() sim.Scheduler {
						sched, err := sim.ParseScheduler(spec, 1234+uint64(i))
						if err != nil {
							t.Fatal(err)
						}
						return sched
					}
					cap := batchCap(t, sc, algo, radius)
					w, err := sc.WithScheduler(mkSched()).NewWorldIn(nil, algo, radius)
					if err != nil {
						t.Fatal(err)
					}
					res, runErr := w.SafeRun(cap)

					e.Reset()
					addBatchLane(t, e, sc, algo, radius, cap, mkSched())
					addBatchLane(t, e, sc, algo, radius, cap, mkSched())
					e.Run()
					for l := 0; l < 2; l++ {
						lo := e.Outcome(l)
						switch {
						case runErr != nil && lo.PanicVal == nil:
							t.Fatalf("instance %d lane %d: scalar panicked (%v), batch completed %+v", i, l, runErr, lo.Res)
						case runErr == nil && lo.PanicVal != nil:
							t.Fatalf("instance %d lane %d: batch panicked (%v), scalar completed %+v", i, l, lo.PanicVal, res)
						case runErr != nil:
							if !strings.Contains(runErr.Error(), fmt.Sprint(lo.PanicVal)) {
								t.Fatalf("instance %d lane %d: panic values differ:\nscalar: %v\nbatch:  %v", i, l, runErr, lo.PanicVal)
							}
						case fmt.Sprint(lo.Res) != fmt.Sprint(res):
							t.Fatalf("instance %d lane %d diverged:\nscalar: %+v\nbatch:  %+v", i, l, res, lo.Res)
						}
					}
				}
			})
		}
	}
}

// TestBatchHeterogeneousAlgorithms loads one instance with lanes running
// under different schedulers — full-sync completes fast, semi-sync drags
// or legitimately panics — and checks that the surviving lanes reproduce
// their scalar runs exactly despite sharing the engine with retired and
// panicked siblings.
func TestBatchHeterogeneousAlgorithms(t *testing.T) {
	sc := goldenInstances("faster")[0]
	cap := batchCap(t, sc, "faster", 0)
	scalar := func(sched sim.Scheduler) (sim.Result, error) {
		w, err := sc.WithScheduler(sched).NewWorldIn(nil, "faster", 0)
		if err != nil {
			t.Fatal(err)
		}
		return w.SafeRun(cap)
	}
	fullRes, fullErr := scalar(sim.NewFullSync())
	if fullErr != nil {
		t.Fatalf("full-sync scalar run failed: %v", fullErr)
	}
	semiRes, semiErr := scalar(sim.NewSemiSync(0.6, 42))

	e := batch.NewEngine()
	full0 := addBatchLane(t, e, sc, "faster", 0, cap, nil)
	semi := addBatchLane(t, e, sc, "faster", 0, cap, sim.NewSemiSync(0.6, 42))
	full1 := addBatchLane(t, e, sc, "faster", 0, cap, nil)
	e.Run()

	for _, l := range []int{full0, full1} {
		lo := e.Outcome(l)
		if lo.PanicVal != nil {
			t.Fatalf("full-sync lane %d panicked: %v", l, lo.PanicVal)
		}
		if fmt.Sprint(lo.Res) != fmt.Sprint(fullRes) {
			t.Errorf("full-sync lane %d diverged from scalar:\nscalar: %+v\nbatch:  %+v", l, fullRes, lo.Res)
		}
	}
	lo := e.Outcome(semi)
	switch {
	case semiErr != nil:
		if lo.PanicVal == nil {
			t.Fatalf("semi-sync lane completed where scalar panicked (%v)", semiErr)
		}
		if !strings.Contains(semiErr.Error(), fmt.Sprint(lo.PanicVal)) {
			t.Errorf("semi-sync panic values differ:\nscalar: %v\nbatch:  %v", semiErr, lo.PanicVal)
		}
		if lo.Stack == "" {
			t.Error("panicked lane lost its stack")
		}
	case lo.PanicVal != nil:
		t.Fatalf("semi-sync lane panicked where scalar completed: %v", lo.PanicVal)
	case fmt.Sprint(lo.Res) != fmt.Sprint(semiRes):
		t.Errorf("semi-sync lane diverged from scalar:\nscalar: %+v\nbatch:  %+v", semiRes, lo.Res)
	}
}

// TestLaneArenaPooling pins that LaneArena pooling is bit-transparent:
// re-running a batch whose agents come out of a dirty LaneArena (slot
// reuse via Resettable.Reset) reproduces the fresh batch exactly, and
// falls back to fresh construction on shape changes.
func TestLaneArenaPooling(t *testing.T) {
	instances := goldenInstances("uxs")[:4]
	arena := NewLaneArena()
	e := batch.NewEngine()
	outcomes := func(pass int) []string {
		var out []string
		for _, sc := range instances {
			e.Reset()
			cap := batchCap(t, sc, "uxs", 0)
			for l := 0; l < 3; l++ {
				agents, err := sc.NewAgentsIn(arena, e.Lanes(), "uxs", 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := e.AddLane(sc.G, agents, sc.Positions, cap, nil); err != nil {
					t.Fatal(err)
				}
			}
			e.Run()
			for l := 0; l < 3; l++ {
				lo := e.Outcome(l)
				if lo.PanicVal != nil {
					t.Fatalf("pass %d: lane %d panicked: %v", pass, l, lo.PanicVal)
				}
				out = append(out, fmt.Sprint(lo.Res))
			}
		}
		return out
	}
	first := outcomes(1)
	second := outcomes(2) // every slot now reused via Resettable.Reset
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("pooled agent rerun diverged at run %d:\nfresh:  %s\npooled: %s", i, first[i], second[i])
		}
	}
}
