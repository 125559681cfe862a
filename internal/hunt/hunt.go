// Package hunt is the worst-case-seed hunter: a small deterministic
// generational search over the seed space of one frozen instance. A
// candidate seed drives everything a sweep row's seed drives — robot IDs,
// placement, the activation scheduler's stream, and the fault schedule —
// so the hunter is searching the adversary's whole choice space
// (placement x activation x fault schedule) with one integer, and any
// seed it surfaces replays exactly through `gathersim -seed`.
//
// The search is elitist: generation 0 is a uniform sample, every later
// generation keeps the worst seeds found so far and fills the rest of the
// population with bit-flip mutants of them plus fresh immigrants. Elitism
// makes the incumbent monotone — the final worst candidate is never
// better than generation 0's — and every draw comes from one seeded
// stream, so a hunt is a pure function of its Config: the package is in
// the repolint deterministic set.
package hunt

import (
	"fmt"
	"sort"

	"repro/internal/gather"
	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/serve"
	"repro/internal/sim/fault"
)

// Config describes one hunt. The zero values of the search knobs select
// small defaults (see Run); the instance fields are required.
type Config struct {
	G         *graph.Graph  // frozen instance under attack (shared, read-only)
	Cfg       gather.Config // its (certified) schedule config
	Algo      string        // algorithm under attack
	Radius    int           // hopmeet radius
	K         int           // robots
	Placement string        // placement engine drawn per candidate seed
	Sched     string        // activation scheduler spec
	Faults    fault.Spec    // fault class whose schedule the hunter searches
	Churn     float64       // per-round edge-churn probability
	MaxRounds int           // round cap override (0 = algorithm-derived)

	Population  int    // candidates per generation (default 8)
	Generations int    // generations after generation 0 (default 3)
	Elite       int    // worst seeds carried into each next generation (default Population/4)
	Seed        uint64 // the hunter's own draw stream

	Parallelism int // runner worker-pool size (0 = GOMAXPROCS)
	BatchWidth  int // lockstep batch width (0 = scalar path)
}

// Candidate is one evaluated seed.
type Candidate struct {
	Seed    uint64
	Rounds  int
	Moves   int64
	Crashed bool // the run panicked (contained); ranked below every clean run
}

// Result is a finished hunt.
type Result struct {
	Best      Candidate   // worst-case candidate over the whole hunt
	Gen0Best  Candidate   // worst candidate of the uniform sample alone
	GenBest   []Candidate // incumbent after each generation (index 0 = generation 0)
	Evaluated int         // distinct seeds simulated
}

// Worse reports whether a is a worse case than b — the hunter's ranking:
// clean runs beat crashed ones (a crash ends a run, it doesn't stretch
// it), more rounds beat fewer, then more moves, then the smaller seed so
// ties resolve identically everywhere.
func Worse(a, b Candidate) bool {
	if a.Crashed != b.Crashed {
		return !a.Crashed
	}
	if a.Rounds != b.Rounds {
		return a.Rounds > b.Rounds
	}
	if a.Moves != b.Moves {
		return a.Moves > b.Moves
	}
	return a.Seed < b.Seed
}

// Run executes the hunt. Every candidate evaluation routes through the
// shared parallel runner (batched when cfg.BatchWidth > 0) with pooled
// per-worker state; results are collected in submission order, so the
// hunt is bit-identical at every Parallelism and BatchWidth setting.
func Run(cfg Config) (Result, error) {
	if cfg.G == nil {
		return Result{}, fmt.Errorf("hunt: no instance graph")
	}
	if cfg.K < 1 {
		return Result{}, fmt.Errorf("hunt: need at least one robot")
	}
	if cfg.Placement == "" {
		cfg.Placement = "maxmin"
	}
	if cfg.Sched == "" {
		cfg.Sched = "full"
	}
	pop := cfg.Population
	if pop <= 0 {
		pop = 8
	}
	gens := cfg.Generations
	if gens <= 0 {
		gens = 3
	}
	elite := cfg.Elite
	if elite <= 0 {
		elite = pop / 4
	}
	if elite < 1 {
		elite = 1
	}
	if elite > pop {
		elite = pop
	}

	rng := graph.NewRNG(cfg.Seed)
	seen := map[uint64]Candidate{}
	res := Result{}

	// ranked returns the current population's candidates worst-first.
	ranked := func(seeds []uint64) []Candidate {
		cands := make([]Candidate, 0, len(seeds))
		for _, s := range seeds {
			cands = append(cands, seen[s])
		}
		sort.Slice(cands, func(i, j int) bool { return Worse(cands[i], cands[j]) })
		return cands
	}

	seeds := make([]uint64, pop)
	for g := 0; g <= gens; g++ {
		if g == 0 {
			for i := range seeds {
				seeds[i] = rng.Uint64()
			}
		} else {
			// Elitism: the worst seeds survive verbatim; the rest of the
			// population is bit-flip mutants of them plus fresh immigrants.
			prev := ranked(seeds)
			next := make([]uint64, 0, pop)
			for i := 0; i < elite && i < len(prev); i++ {
				next = append(next, prev[i].Seed)
			}
			for len(next) < pop {
				if len(next) >= pop-2 {
					next = append(next, rng.Uint64()) // immigrant
					continue
				}
				parent := next[int(rng.Uint64()%uint64(elite))]
				flips := 1 + int(rng.Uint64()%3)
				for f := 0; f < flips; f++ {
					parent ^= 1 << (rng.Uint64() % 64)
				}
				next = append(next, parent)
			}
			seeds = next
		}
		if err := evaluate(cfg, seeds, seen, &res.Evaluated); err != nil {
			return Result{}, err
		}
		best := ranked(seeds)[0]
		if g == 0 {
			res.Gen0Best = best
			res.Best = best
		} else if Worse(best, res.Best) {
			res.Best = best
		}
		res.GenBest = append(res.GenBest, res.Best)
	}
	return res, nil
}

// evaluate simulates every not-yet-seen seed of the population through
// the runner and memoizes the candidates. Re-ranked elites never re-run.
func evaluate(cfg Config, seeds []uint64, seen map[uint64]Candidate, evaluated *int) error {
	var fresh []uint64
	dup := map[uint64]bool{}
	for _, s := range seeds {
		if _, ok := seen[s]; ok || dup[s] {
			continue
		}
		dup[s] = true
		fresh = append(fresh, s)
	}
	if len(fresh) == 0 {
		return nil
	}
	*evaluated += len(fresh)

	jobs := make([]runner.Job, len(fresh))
	for i, s := range fresh {
		scSeed := s
		jobs[i] = serve.Run{
			Scenario: func() (*gather.Scenario, error) {
				return serve.RowScenario(cfg.G, cfg.Cfg, cfg.Placement, cfg.K, cfg.Sched, scSeed)
			},
			Algo: cfg.Algo, Radius: cfg.Radius, MaxRounds: cfg.MaxRounds,
			Faults: cfg.Faults, FaultSeed: scSeed ^ gather.FaultSeedSalt,
			// Churn is part of the searched schedule: each candidate draws
			// its own overlay stream (unlike a sweep, where one overlay is
			// shared per instance), so churned candidates run scalar.
			Churn: cfg.Churn, ChurnSeed: scSeed ^ gather.ChurnSeedSalt, ChurnPerRun: true,
		}.Job(scSeed)
	}

	r := runner.New(cfg.Parallelism).WithWorkerState(func(int) any { return gather.NewSweepState() })
	var results []runner.JobResult
	if cfg.BatchWidth > 0 {
		results, _ = r.RunBatched(cfg.Seed, jobs, cfg.BatchWidth)
	} else {
		results, _ = r.Run(cfg.Seed, jobs)
	}
	for _, jr := range results {
		s := jr.Meta.(uint64)
		if jr.Err != nil {
			// Only a contained panic is a candidate outcome; a plain build
			// error is a configuration mistake and fails the hunt.
			if jr.Stack == "" {
				return fmt.Errorf("hunt: seed %d: %w", s, jr.Err)
			}
			seen[s] = Candidate{Seed: s, Crashed: true}
			continue
		}
		seen[s] = Candidate{Seed: s, Rounds: jr.Res.Rounds, Moves: jr.Res.TotalMoves}
	}
	return nil
}
