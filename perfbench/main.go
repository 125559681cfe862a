// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload through the repo's public entry points, checks every output
// against a reference, and prints its metrics as one JSON object on the
// last line of standard output.
//
//	bash perfbench/run.sh --workload sweepd-mmpp --seed 3 --seconds 20 --trace 0
//
// Workloads (see BENCHMARK.json for the reason each exists):
//
//	experiments-full  the complete cmd/experiments run (scalar engine)
//	sweepd-mmpp       in-process sweep server under bursty MMPP arrivals
//
// With --trace 0 the run is untraced and reports the end-to-end metrics;
// with --trace 1 it reports the per-layer metrics from a separate traced
// run (trace.go), after checking that the traced run reproduces the
// untraced run's outputs and printing the tracing overhead.
//
// run.sh builds cmd/experiments and this command, then passes the binary
// directory and a scratch directory in PERFBENCH_BIN and PERFBENCH_TMP.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload needs from the command line and run.sh.
type env struct {
	seed    uint64
	seconds time.Duration
	bin     string // directory holding the experiments binary
	tmp     string // scratch directory inside the checkout
}

// workload runs one workload untraced (end-to-end metrics) or traced
// (per-layer metrics). Both return the operation tally that decides
// correct/attempted/failed.
type workload struct {
	untraced func(e env) (map[string]metric, *tally, error)
	traced   func(e env) (map[string]metric, *tally, error)
}

var workloads = map[string]workload{
	"experiments-full": {untraced: experimentsUntraced, traced: experimentsTraced},
	"sweepd-mmpp":      {untraced: sweepdUntraced, traced: sweepdTraced},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: experiments-full or sweepd-mmpp")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		record  = flag.Bool("record", false, "re-record references.json for experiments-full and exit")
	)
	flag.Parse()

	e := env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		bin: os.Getenv("PERFBENCH_BIN"), tmp: os.Getenv("PERFBENCH_TMP")}
	if e.bin == "" || e.tmp == "" {
		fmt.Fprintln(os.Stderr, "perfbench: PERFBENCH_BIN and PERFBENCH_TMP must be set; run through perfbench/run.sh")
		return 2
	}
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *record {
		if err := recordReferences(e); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}

	// Every result carries the machine it was measured on.
	mach, err := json.Marshal(machineRecord())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Printf("machine: %s\n", mach)

	runFn := w.untraced
	if *trace == 1 {
		runFn = w.traced
	}
	metrics, t, err := runFn(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, msg := range t.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: failed operation: %s\n", *name, msg)
	}
	res := result{Correct: !t.wrong, Attempted: t.attempted, Failed: t.failed, Metrics: metrics}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// tally counts operations: attempted, failed and ok. An operation fails
// when it errs, when its output differs from its reference, or when it is
// a [FAIL] verdict of an experiments table. The first two also make the
// run incorrect; a [FAIL] verdict is the program's own reproducible
// output, so it counts as failed but leaves the run correct. An operation
// the server sheds with 429 is neither ok nor failed; it lowers ok_ratio
// only.
type tally struct {
	attempted, failed, ok int
	wrong                 bool // an operation erred or differed from its reference
	errs                  []string
}

// record counts one operation: failed when err is non-nil, ok otherwise.
func (t *tally) record(err error) {
	if err != nil {
		t.wrong = true
		t.fail(err.Error())
		return
	}
	t.attempted++
	t.ok++
}

// fail counts one failed operation and keeps its message.
func (t *tally) fail(msg string) {
	t.attempted++
	t.failed++
	if len(t.errs) < 20 {
		t.errs = append(t.errs, msg)
	}
}

// shed counts one operation the server refused under load.
func (t *tally) shed() { t.attempted++ }

func (t *tally) okRatio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.ok) / float64(t.attempted)
}
