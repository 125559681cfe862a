// Semisync: what the paper's synchrony assumption is worth.
//
// The same two-robot instance is run under the fully-synchronous
// scheduler (the model every bound in the paper is proved in) and under
// semi-synchronous schedulers that activate each robot with probability p
// per round. Three outcomes appear, one per algorithm family:
//
//   - the iterated-deepening baseline keeps gathering with detection,
//     paying a measurable slowdown as p drops;
//
//   - the paper's phase-synchronized UXS algorithm typically stops
//     gathering at all once robots fall out of lockstep;
//
//   - Faster-Gathering's map-construction protocol crashes outright when
//     its token-passing partner freezes mid-handshake.
//
//     go run ./examples/semisync
package main

import (
	"fmt"
	"log"

	gathering "repro"
)

func build() *gathering.Scenario {
	g := gathering.Cycle(9)
	rng := gathering.NewRNG(1)
	g = g.WithPermutedPorts(rng)
	sc := &gathering.Scenario{
		G:         g,
		IDs:       gathering.AssignIDs(2, g.N(), rng),
		Positions: gathering.RandomDispersed(g, 2, rng),
	}
	sc.Certify()
	return sc
}

// safeRun builds the algorithm's world and runs it with panic containment
// (World.SafeRun): outside the synchronous model an algorithm crashing
// is an outcome to report, not a reason to die.
func safeRun(sc *gathering.Scenario, algo string, cap int) (gathering.Result, error) {
	w, err := sc.NewWorld(algo, 0)
	if err != nil {
		log.Fatal(err)
	}
	return w.SafeRun(cap)
}

func main() {
	fmt.Println("iterated-deepening baseline (survives desynchronization):")
	var syncRounds int
	for _, p := range []float64{1.0, 0.75, 0.5} {
		sc := build()
		if p < 1 {
			sc.Sched = gathering.NewSemiSync(p, 1)
		}
		cap := 8 * (sc.Cfg.FasterBound(sc.G.N()) + 10)
		res, err := safeRun(sc, "dessmark", cap)
		if err != nil {
			log.Fatal(err)
		}
		if p == 1 {
			syncRounds = res.Rounds
		}
		fmt.Printf("  p=%.2f  gathered=%-5v detection=%-5v rounds=%-6d slowdown=%.1fx\n",
			p, res.Gathered, res.DetectionCorrect, res.Rounds,
			float64(res.Rounds)/float64(syncRounds))
	}

	fmt.Println("\npaper's UXS gathering-with-detection (phase-synchronized):")
	for _, p := range []float64{1.0, 0.75} {
		sc := build()
		if p < 1 {
			sc.Sched = gathering.NewSemiSync(p, 1)
		}
		cap := 2 * (sc.Cfg.UXSGatherBound(sc.G.N()) + 2)
		res, err := safeRun(sc, "uxs", cap)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  p=%.2f  gathered=%-5v detection=%-5v rounds=%d\n",
			p, res.Gathered, res.DetectionCorrect, res.Rounds)
	}

	fmt.Println("\nFaster-Gathering (map construction needs its partner awake):")
	{
		sc := build()
		sc.Sched = gathering.NewSemiSync(0.75, 1)
		_, err := safeRun(sc, "faster", 2*(sc.Cfg.FasterBound(sc.G.N())+10))
		if err != nil {
			fmt.Printf("  p=0.75  CRASHED: %s\n", err)
		} else {
			fmt.Println("  p=0.75  survived on this instance (rerun with another seed)")
		}
	}

	fmt.Println("\nthe synchronous schedule is not a convenience — it is load-bearing.")
}
