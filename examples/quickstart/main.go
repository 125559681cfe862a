// Quickstart: seven robots gather, with detection, on an anonymous cycle.
//
// This is the smallest complete use of the public API: build a graph, give
// it adversarial port labels, place robots, run Faster-Gathering, and read
// the verdict.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	gathering "repro"
)

func main() {
	g := gathering.Cycle(12)
	rng := gathering.NewRNG(7)
	g = g.WithPermutedPorts(rng) // the adversary labels the ports

	k := 7 // k >= n/2+1: the paper's O(n^3) many-robots regime
	sc := &gathering.Scenario{
		G:         g,
		IDs:       gathering.AssignIDs(k, g.N(), rng),
		Positions: gathering.MaxMinDispersed(g, k, rng), // adversarial spread
	}
	sc.Certify() // pin a verified exploration-sequence length

	fmt.Printf("graph: %v, robots at %v (min pairwise distance %d)\n",
		g, sc.Positions, sc.MinPairDistance())

	res, err := sc.Run("faster", 0, sc.Cfg.FasterBound(g.N())+10)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("gathered:          %v (first fully together at round %d)\n",
		res.Gathered, res.FirstGatherRound)
	fmt.Printf("detection correct: %v (all robots terminated knowing it)\n",
		res.DetectionCorrect)
	fmt.Printf("rounds:            %d   total moves: %d\n", res.Rounds, res.TotalMoves)
	fmt.Printf("final node of every robot: %v\n", res.FinalPositions)
}
