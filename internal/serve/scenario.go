// Package serve is the sweep-serving layer: the declarative sweep
// request (the workload catalog grammar as a wire format), its canonical
// serialization and content-address, the executor that runs a request on
// the pooled parallel runner and renders NDJSON rows, the bounded
// admission queue, the single-flight LRU result cache, and the HTTP
// handlers that tie them together for cmd/sweepd.
//
// The package is in the repolint deterministic set: everything between
// request bytes and response bytes — parsing, validation,
// canonicalization, job construction, row rendering — must be a pure
// function of the request, so a cached replay is bit-identical to a fresh
// execution and the service path diffs clean against the CLIs. The only
// sanctioned wall-clock reads are the annotated metrics probes in
// clock.go; they feed operator counters, never response bytes.
package serve

import (
	"fmt"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/place"
	"repro/internal/sim"
)

// CertifyMaxNodes bounds the instance sizes that get UXS certification (a
// coverage walk of the whole sequence) and a reported diameter (all-pairs
// BFS): both are superlinear and infeasible at the million-node scale
// workloads. Larger instances run with the uncertified Θ(n³) sequence
// length and report no diameter. Every CI diff-gate workload is at or
// below the bound, so their output is byte-identical. Shared by gathersim
// and the sweep service, so the two paths always agree on which instances
// are certified.
const CertifyMaxNodes = 1 << 14

// CertifyScenario runs the scenario's UXS certification when the
// instance is small enough for the coverage walk to be feasible.
func CertifyScenario(sc *gather.Scenario) {
	if sc.G.N() <= CertifyMaxNodes {
		sc.Certify()
	}
}

// Diameter returns the graph's diameter and true, or 0 and false when the
// instance is too large for the all-pairs BFS.
func Diameter(g *graph.Graph) (int, bool) {
	if g.N() > CertifyMaxNodes {
		return 0, false
	}
	return g.Diameter(), true
}

// BuildSched parses a scheduler spec into a fresh per-run scheduler. The
// SemiSync stream seed is decorrelated from the scenario seed (which
// already drives the graph, ports, IDs and placement) by a fixed bit
// flip, so activation patterns and topology draws never share a stream
// state. The flip constant is part of the engine's determinism contract:
// gathersim and sweepd both route through here, so a request tuple means
// the same activation stream everywhere.
func BuildSched(spec string, seed uint64) (sim.Scheduler, error) {
	return sim.ParseScheduler(spec, seed^0x5EEDC0DEC0FFEE42)
}

// PlaceRobots draws k starting positions on g with the requested engine.
func PlaceRobots(g *graph.Graph, placement string, k int, rng *graph.RNG) ([]int, error) {
	n := g.N()
	switch placement {
	case "maxmin":
		pos := place.MaxMinDispersed(g, min(k, n), rng)
		for len(pos) < k { // more robots than nodes: stack the extras
			pos = append(pos, rng.Intn(n))
		}
		return pos, nil
	case "random":
		return place.Random(g, k, rng), nil
	case "dispersed":
		return place.RandomDispersed(g, k, rng), nil
	case "clustered":
		return place.Clustered(g, k, max(1, k/2), rng), nil
	default:
		return nil, fmt.Errorf("unknown placement %q", placement)
	}
}

// RowScenario derives one sweep row's scenario from its seed: placement,
// then IDs, from the seed's stream, and a fresh scheduler (BuildSched) —
// on the shared frozen graph g with its certified config cfg.
func RowScenario(g *graph.Graph, cfg gather.Config, placement string, k int, sched string, seed uint64) (*gather.Scenario, error) {
	rng := graph.NewRNG(seed)
	pos, err := PlaceRobots(g, placement, k, rng)
	if err != nil {
		return nil, err
	}
	sc := &gather.Scenario{G: g, IDs: gather.AssignIDs(k, g.N(), rng), Positions: pos, Cfg: cfg}
	if sc.Sched, err = BuildSched(sched, seed); err != nil {
		return nil, err
	}
	return sc, nil
}
