// Swarm: the power of many robots, measured.
//
// The paper's headline is that robot count buys speed: with k >= n/2+1
// robots, gathering with detection costs O(n^3) rounds instead of the
// ~O(n^5) a lone far-apart pair needs. This example runs the same graph
// with a growing swarm and prints the regime staircase, plus the
// comparison against the UXS-only baseline (Ta-Shma–Zwick style).
//
//	go run ./examples/swarm
package main

import (
	"fmt"
	"log"

	gathering "repro"
)

func main() {
	rng := gathering.NewRNG(99)
	n := 12
	g := gathering.Cycle(n)
	g = g.WithPermutedPorts(rng)

	fmt.Printf("cycle of %d nodes; robots placed adversarially (max-min spread)\n\n", n)
	fmt.Printf("%4s  %9s  %8s  %12s\n", "k", "min-dist", "rounds", "regime")

	for _, k := range []int{2, 3, 4, 5, 7, 9, 12} {
		pos := gathering.MaxMinDispersed(g, k, rng)
		sc := &gathering.Scenario{
			G:         g,
			IDs:       gathering.AssignIDs(k, n, rng),
			Positions: pos,
		}
		sc.Certify()
		res, err := sc.Run("faster", 0, sc.Cfg.FasterBound(n)+10)
		if err != nil {
			log.Fatal(err)
		}
		if !res.DetectionCorrect {
			log.Fatalf("k=%d: gathering failed", k)
		}
		regime := "tail (UXS fallback)"
		switch {
		case k >= n/2+1:
			regime = "O(n^3)"
		case k >= n/3+1:
			regime = "O(n^4 log n)"
		}
		fmt.Printf("%4d  %9d  %8d  %12s\n", k, gathering.MinPairwise(g, pos), res.Rounds, regime)
	}

	// Baseline comparison at the sweet spot.
	k := n/2 + 1
	pos := gathering.MaxMinDispersed(g, k, rng)
	ids := gathering.AssignIDs(k, n, rng)
	sc := &gathering.Scenario{G: g, IDs: ids, Positions: pos}
	sc.Certify()
	fast, err := sc.Run("faster", 0, sc.Cfg.FasterBound(n)+10)
	if err != nil {
		log.Fatal(err)
	}
	scU := &gathering.Scenario{G: g, IDs: ids, Positions: pos, Cfg: sc.Cfg}
	uxs, err := scU.Run("uxs", 0, sc.Cfg.UXSGatherBound(n)+2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwith k=%d: Faster-Gathering %d rounds vs UXS baseline %d rounds (%.1fx speedup)\n",
		k, fast.Rounds, uxs.Rounds, float64(uxs.Rounds)/float64(fast.Rounds))
}
