package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"repro/internal/expt"
)

// experiments-full runs the repo's cmd/experiments binary as a child
// process, so cpu_s and peak_rss_mb are the child's own rusage and the
// timed run is exactly what a user of the CLI waits for.

const (
	// minOps is the fewest operations an untraced run measures, so its
	// median never rests on one or two samples.
	minOps = 3
	// setupSamples is how many times set-up is measured per run.
	setupSamples = 7
	// childTimeout bounds one child process.
	childTimeout = 120 * time.Second
)

// experimentsParallel is the worker count of every experiments run. On a
// 2-vCPU host, whatever else the host ran took time from one of two
// workers: complete runs on two workers moved about 20% from run to run,
// and in 14 back-to-back pairs of the same gathersim sweep on one and on
// two workers, the interquartile range was 7% of the median on one worker
// and 12% on two.
const experimentsParallel = 1

// experimentsWarmup is the set-up run of experiments-full: one reduced
// experiment on one worker (about 0.02 s on a 2-core Xeon; E10, which
// runs many short parallel jobs, varied twofold from run to run).
var experimentsWarmup = []string{"-quick", "-run", "E16", "-parallel", strconv.Itoa(experimentsParallel)}

// childRun is one finished child process.
type childRun struct {
	wall time.Duration
	cpu  time.Duration // user + sys
	rss  int64         // peak resident set, bytes
}

// runChild runs bin to completion and reports its wall time and rusage.
func runChild(bin string, args ...string) (childRun, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	c := childRun{wall: time.Since(t0)}
	if err != nil {
		return c, fmt.Errorf("%s: %w: %s", filepath.Base(bin), err, lastLine(stderr.Bytes()))
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		c.rss = ru.Maxrss * 1024 // Linux reports kilobytes
	}
	return c, nil
}

func lastLine(b []byte) string {
	b = bytes.TrimSpace(b)
	return string(b[bytes.LastIndexByte(b, '\n')+1:])
}

// spawnSetup is a CLI workload's set-up: process start plus a short
// warm-up run of the same binary, which also pages the binary in before
// the first timed run. It appends the wall times of setupSamples runs.
func spawnSetup(walls []float64, bin string, args ...string) ([]float64, error) {
	for i := 0; i < setupSamples; i++ {
		c, err := runChild(bin, args...)
		if err != nil {
			return walls, err
		}
		walls = append(walls, c.wall.Seconds())
	}
	return walls, nil
}

// tableRuns is what one untraced run of experiments-full measured: each
// experiment's wall and CPU time in every round that checked, each
// round's peak RSS, and the set-up samples taken before each round.
type tableRuns struct {
	wall, cpu map[string][]float64 // seconds, by experiment ID
	rss       []float64            // MB, the largest child of each round
	setup     []float64            // seconds
}

// tableTime is the time of one complete table run: the sum over
// experiments of each one's median wall and CPU time across rounds. A
// slow spell on the host that hits one round of an experiment moves
// neither sum; the median of whole table runs of 12–25 s moved up to 30%
// between runs on a shared 2-vCPU host.
func (r tableRuns) tableTime() (wall, cpu float64) {
	for _, id := range sortedKeys(r.wall) {
		wall += median(r.wall[id])
		cpu += median(r.cpu[id])
	}
	return wall, cpu
}

// experimentsMetrics are the end-to-end metrics of experiments-full.
// sim_rw_per_s counts table runs per second, since cmd/experiments does
// not expose its simulated round count. A run holds too few table runs
// for a p95 with ten samples beyond it, so req_p95_ms is the median again.
func experimentsMetrics(r tableRuns, t *tally) map[string]metric {
	sweep, cpu := r.tableTime()
	return map[string]metric{
		"setup_s":      {median(r.setup), "s"},
		"sweep_s":      {sweep, "s"},
		"sim_rw_per_s": {1 / sweep, "1/s"},
		"cpu_s":        {cpu, "s"},
		"peak_rss_mb":  {median(r.rss), "MB"},
		"req_p50_ms":   {sweep * 1e3, "ms"},
		"req_p95_ms":   {sweep * 1e3, "ms"},
		"ok_ratio":     {t.okRatio(), "ratio"},
	}
}

// loopOps runs op back to back (a closed loop) for the window: another
// operation starts only while the window is expected to hold it (elapsed
// time plus the median operation so far), and at least minOps run, in a
// whole number of cycles of cycle operations. With fixed > 0 it runs op
// exactly fixed times instead. op returns its wall time in seconds.
func loopOps(window time.Duration, fixed, cycle int, op func() float64) {
	start := time.Now()
	var walls []float64
	for {
		if fixed > 0 && len(walls) == fixed {
			break
		}
		if fixed == 0 && len(walls) >= minOps && len(walls)%cycle == 0 &&
			time.Since(start).Seconds()+median(walls) > window.Seconds() {
			break
		}
		walls = append(walls, op())
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d operations, wall s %.3f\n", len(walls), walls)
}

// rotating gives round i of an untraced run program seed
// progSeed(seed+i), so each cycle of rounds measures every program seed
// once.
func rotating(e env) func(i int) uint64 {
	return func(i int) uint64 { return progSeed(e.seed + uint64(i)) }
}

// fixedSeed gives every round the run's first program seed.
func fixedSeed(e env) func(int) uint64 {
	return func(int) uint64 { return progSeed(e.seed) }
}

// experimentOnce runs one experiment of cmd/experiments in a process of
// its own and returns its table.
func experimentOnce(e env, id string, seed uint64) ([]byte, childRun, error) {
	dir, err := os.MkdirTemp(e.tmp, "experiments-")
	if err != nil {
		return nil, childRun{}, err
	}
	defer os.RemoveAll(dir)
	c, err := runChild(filepath.Join(e.bin, "experiments"), "-run", id, "-seed", strconv.FormatUint(seed, 10),
		"-parallel", strconv.Itoa(experimentsParallel), "-outdir", dir)
	if err != nil {
		return nil, c, err
	}
	table, err := os.ReadFile(filepath.Join(dir, id+".txt"))
	return table, c, err
}

// runExperiments is the untraced loop of experiments-full. A round runs
// every experiment once, in ID order and each in its own process, at
// program seed seedOf(round); rounds repeat for the window in whole
// cycles of the program seeds, or exactly fixed times when fixed > 0. Every table is checked against its
// reference and its verdicts are tallied. Set-up is measured before each
// round, so its median does not rest on one moment of a shared host.
func runExperiments(e env, fixed int, seedOf func(int) uint64) (tableRuns, *tally, error) {
	r := tableRuns{wall: map[string][]float64{}, cpu: map[string][]float64{}}
	refs, err := loadReferences()
	if err != nil {
		return r, nil, err
	}
	t := &tally{}
	round := 0
	loopOps(e.seconds, fixed, len(programSeeds), func() float64 {
		ps := seedOf(round)
		round++
		ref, err := refs.table(ps)
		if err != nil {
			t.record(err)
			return 0
		}
		if r.setup, err = spawnSetup(r.setup, filepath.Join(e.bin, "experiments"), experimentsWarmup...); err != nil {
			t.record(err)
			return 0
		}
		t0 := time.Now()
		rss := 0.0
		for _, x := range expt.All() {
			table, c, err := experimentOnce(e, x.ID, ps)
			if err == nil {
				err = checkTable(x.ID+".txt", table, ref)
			}
			t.verdicts(map[string][]byte{x.ID + ".txt": table}, err)
			if err == nil {
				r.wall[x.ID] = append(r.wall[x.ID], c.wall.Seconds())
				r.cpu[x.ID] = append(r.cpu[x.ID], c.cpu.Seconds())
				rss = max(rss, float64(c.rss)/1e6)
			}
		}
		r.rss = append(r.rss, rss)
		return time.Since(t0).Seconds()
	})
	for _, x := range expt.All() {
		if len(r.wall[x.ID]) == 0 {
			return r, t, fmt.Errorf("no run of %s succeeded: %v", x.ID, t.errs)
		}
	}
	return r, t, nil
}

func experimentsUntraced(e env) (map[string]metric, *tally, error) {
	r, t, err := runExperiments(e, 0, rotating(e))
	if err != nil {
		return nil, t, err
	}
	return experimentsMetrics(r, t), t, nil
}
