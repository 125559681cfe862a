// Maze: robots lost in a maze of rooms and corridors find each other.
//
// This is the paper's own motivating scenario (§1): "multiple humans or
// robots trying to find each other in a discretized space such as in a
// maze with rooms and corridors between them". Eleven robots — more than
// half the rooms, so Lemma 15 puts some pair within two corridors — are
// dropped at maximally spread positions in a 4x5 maze and run
// Faster-Gathering; the example steps the simulator manually and prints
// how the number of distinct occupied locations shrinks to one.
//
//	go run ./examples/maze
package main

import (
	"fmt"
	"log"

	gathering "repro"
)

func main() {
	rng := gathering.NewRNG(2024)
	g := gathering.Maze(4, 5, 6, rng) // 20 rooms, 6 extra corridors
	n := g.N()

	k := n/2 + 1 // the paper's many-robots regime: O(n^3) guaranteed
	sc := &gathering.Scenario{
		G:         g,
		IDs:       gathering.AssignIDs(k, n, rng),
		Positions: gathering.MaxMinDispersed(g, k, rng),
	}
	sc.Certify()

	fmt.Printf("maze: %d rooms, %d corridors, diameter %d\n", n, g.M(), g.Diameter())
	fmt.Printf("robots %v start at rooms %v (closest pair %d corridors apart)\n\n",
		sc.IDs, sc.Positions, sc.MinPairDistance())

	w, err := sc.NewWorld("faster", 0)
	if err != nil {
		log.Fatal(err)
	}
	occ := &gathering.OccupancyTracer{}
	w.SetTracer(occ)

	res := w.Run(sc.Cfg.FasterBound(n) + 10)

	// Print the occupancy milestones: the rounds where the number of
	// distinct occupied rooms dropped.
	fmt.Println("search progress (distinct occupied rooms over time):")
	last := k + 1
	for round, c := range occ.Counts {
		if c < last {
			fmt.Printf("  round %6d: %d room(s) occupied\n", round+1, c)
			last = c
		}
	}

	fmt.Printf("\neveryone met in room %d after %d rounds (%d total corridor moves)\n",
		res.FinalPositions[0], res.Rounds, res.TotalMoves)
	fmt.Printf("detection correct: %v — every robot terminated knowing the search is over\n",
		res.DetectionCorrect)
}
