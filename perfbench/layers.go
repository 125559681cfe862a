package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/expt"
	"repro/internal/prof"
)

// layerUnits lists every per-layer metric with its unit, named
// <module>.<metric> after the Go package it times. A traced run reports
// all of them; a layer the workload does not reach reads 0.
var layerUnits = func() [][2]string {
	u := [][2]string{
		{"graph.build_s", "s"}, {"graph.builds", "count"}, {"graph.diameter_s", "s"},
		{"uxs.certify_s", "s"}, {"uxs.certify_calls", "count"},
		{"place.place_s", "s"}, {"place.calls", "count"},
		{"gather.agents_s", "s"}, {"gather.robots_built", "count"},
		{"fault.apply_s", "s"},
		{"batch.add_lane_s", "s"}, {"batch.run_s", "s"}, {"batch.ns_per_rw", "ns"},
		{"batch.round_worlds", "count"}, {"batch.lanes", "count"}, {"batch.flushes", "count"},
		{"batch.lockstep_rounds", "count"}, {"batch.lane_fill", "ratio"}, {"batch.move_ratio", "ratio"},
		{"engine.observe_s", "s"}, {"engine.communicate_s", "s"}, {"engine.decide_s", "s"},
		{"engine.resolve_s", "s"}, {"engine.apply_s", "s"},
		{"runner.wall_s", "s"}, {"runner.work_s", "s"}, {"runner.jobs", "count"},
		{"runner.failed", "count"}, {"runner.busy_ratio", "ratio"},
	}
	for i := 1; i <= 23; i++ {
		u = append(u, [2]string{fmt.Sprintf("expt.E%d_s", i), "s"})
	}
	return append(u, [][2]string{
		{"serve.parse_s", "s"}, {"serve.execute_s", "s"},
		{"serve.cache_hits", "count"}, {"serve.cache_misses", "count"},
		{"serve.cache_coalesced", "count"}, {"serve.cache_evictions", "count"},
		{"serve.cache_hit_ratio", "ratio"}, {"serve.queue_rejected", "count"},
		{"serve.hit_p50_ms", "ms"}, {"serve.miss_p50_ms", "ms"}, {"serve.response_bytes", "bytes"},
		{"loadgen.requests", "count"}, {"loadgen.burst_share", "ratio"},
		{"loadgen.scv", "ratio"}, {"loadgen.late_p95_ms", "ms"},
	}...)
}()

// layerMetrics turns measured values into the full per-layer metric set.
func layerMetrics(vals map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerUnits))
	for _, nu := range layerUnits {
		out[nu[0]] = metric{vals[nu[0]], nu[1]}
	}
	return out
}

// sweepLayers reads the layers below serve from the spans of traced
// sweeps, their runner and lockstep counts, and the engine phase totals.
func sweepLayers(vals map[string]float64, tr *tracer, st *sweepStats) {
	ls := tr.layers()
	sec := func(d time.Duration) float64 { return d.Seconds() }
	vals["graph.build_s"], vals["graph.builds"] = sec(ls["graph.build"].total), float64(ls["graph.build"].n)
	vals["graph.diameter_s"] = sec(ls["graph.diameter"].total)
	vals["uxs.certify_s"], vals["uxs.certify_calls"] = sec(ls["uxs.certify"].total), float64(ls["uxs.certify"].n)
	vals["place.place_s"], vals["place.calls"] = sec(ls["place"].total), float64(ls["place"].n)
	vals["gather.agents_s"], vals["gather.robots_built"] = sec(ls["gather.agents"].total), float64(st.robotsBuilt)
	vals["fault.apply_s"] = sec(ls["fault.apply"].total)
	vals["batch.add_lane_s"] = sec(ls["batch.add_lane"].total)
	// The runner span minus the lane builds it caused is the engine's.
	vals["batch.run_s"] = sec(ls["runner"].own)
	if st.roundWorlds > 0 {
		// Engine busy time summed over workers, per round×world.
		vals["batch.ns_per_rw"] = float64(st.work-ls["lane"].total) / float64(st.roundWorlds)
	}
	vals["batch.round_worlds"] = float64(st.roundWorlds)
	vals["batch.lanes"] = float64(st.lanes)
	vals["batch.flushes"] = float64(st.flushes)
	vals["batch.lockstep_rounds"] = float64(st.lockstepRounds)
	if st.laneSlots > 0 {
		vals["batch.lane_fill"] = float64(st.roundWorlds) / float64(st.laneSlots)
	}
	if st.robotRounds > 0 {
		vals["batch.move_ratio"] = float64(st.moves) / float64(st.robotRounds)
	}
	vals["runner.wall_s"], vals["runner.work_s"] = sec(st.wall), sec(st.work)
	vals["runner.jobs"], vals["runner.failed"] = float64(st.jobs), float64(st.failed)
	if st.workerWall > 0 {
		vals["runner.busy_ratio"] = float64(st.work) / float64(st.workerWall)
	}
	phaseLayers(vals)
}

// phaseLayers reads the engine's five phase totals from prof.
func phaseLayers(vals map[string]float64) {
	for p, d := range prof.PhaseTotals() {
		vals["engine."+prof.Phase(p).String()+"_s"] = d.Seconds()
	}
}

// phasePass runs fn once more with the engine phase probes on, so the
// engine.* totals come from prof while the span timings stay free of the
// probes' cost.
func phasePass(fn func() error) error {
	prof.ResetPhases()
	prof.EnablePhases(true)
	defer prof.EnablePhases(false)
	return fn()
}

// experimentsTraced is the traced run of experiments-full: one untraced
// round of CLI runs for the overhead baseline, then every experiment in
// process with a span each, then once more with the phase probes on. Both
// passes' tables must equal the CLI's reference tables. Layers below expt need
// spans inside the program and read 0 here, except the engine phases.
func experimentsTraced(e env) (map[string]metric, *tally, error) {
	r, t, err := runExperiments(e, 1, fixedSeed(e))
	if err != nil {
		return nil, t, err
	}
	untraced, _ := r.tableTime()
	refs, err := loadReferences()
	if err != nil {
		return nil, t, err
	}
	ref, err := refs.table(progSeed(e.seed))
	if err != nil {
		return nil, t, err
	}
	opts := expt.Options{Seed: progSeed(e.seed), Parallelism: experimentsParallel}
	tr := newTracer()
	t0 := time.Now()
	t.verdicts(runTables(tr, opts, ref))
	traced := time.Since(t0).Seconds()
	var tables map[string][]byte
	err = phasePass(func() (err error) {
		tables, err = runTables(newTracer(), opts, ref)
		return err
	})
	t.verdicts(tables, err)
	vals := map[string]float64{}
	for name, l := range tr.layers() {
		vals[name+"_s"] = l.total.Seconds()
	}
	phaseLayers(vals)
	if err := finishTrace(e, "experiments-full", tr, traced, untraced); err != nil {
		return nil, t, err
	}
	return layerMetrics(vals), t, nil
}

// runTables runs every experiment in process, a span each, and checks
// the tables against the reference.
func runTables(tr *tracer, opts expt.Options, ref tableRef) (map[string][]byte, error) {
	tables := map[string][]byte{}
	for _, x := range expt.All() {
		var buf bytes.Buffer
		// The table file cmd/experiments -outdir writes: banner, then output.
		fmt.Fprintf(&buf, "== %s: %s ==\n   claim: %s\n\n", x.ID, x.Title, x.Claim)
		var err error
		tr.do("expt."+x.ID, x.ID, noParent, func() { err = x.Run(&buf, opts) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", x.ID, err)
		}
		tables[x.ID+".txt"] = buf.Bytes()
	}
	return tables, checkTables(tables, ref)
}
