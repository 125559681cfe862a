# Developer entry points. CI runs the same commands (.github/workflows/ci.yml).

.PHONY: all build test race lint fuzz linedelta bench-smoke bench-ledger

all: build lint test

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# The repo's own static-analysis suite (DESIGN.md §5, "Statically
# enforced contracts"): nomapiter, detsource, frozenwrite,
# resetcomplete. Runs `go vet` as a subprocess, so this is the one
# lint entry point.
lint:
	go run ./cmd/repolint ./...

# Fuzz every input grammar for a fixed 15 s each (CI runs the same):
# workload specs, scheduler specs, fault specs and sweep requests.
fuzz:
	go test ./internal/graph -run '^$$' -fuzz '^FuzzParseWorkload$$' -fuzztime 15s
	go test ./internal/sim -run '^$$' -fuzz '^FuzzParseScheduler$$' -fuzztime 15s
	go test ./internal/sim/fault -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 15s
	go test ./internal/serve -run '^$$' -fuzz '^FuzzParseSweepRequest$$' -fuzztime 15s

# Net non-test Go line delta against BASE (default main), the figure
# every change states: make linedelta BASE=<commit>.
BASE ?= main
linedelta:
	@scripts/linedelta.sh $(BASE)

# The allocation gates CI enforces, runnable locally; failures echo the
# offending benchmark line (scripts/benchgate.awk).
bench-smoke:
	go test -run '^$$' -bench 'StepHotLoop|OverlayChurnStep|NeighborWalk|WorldReset|SweepPooledWorld|BatchStep' -benchtime 1x . > /tmp/bench-smoke.txt
	@cat /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkStepHotLoop' -v want=2 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkOverlayChurnStep' -v want=2 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkWorldReset' -v want=2 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkNeighborWalk' -v want=3 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=zeroalloc -v re='^BenchmarkBatchStep' -v want=2 /tmp/bench-smoke.txt
	awk -f scripts/benchgate.awk -v mode=ratio -v num='^BenchmarkSweepPooledWorld/pooled' -v den='^BenchmarkSweepPooledWorld/rebuild' -v factor=5 /tmp/bench-smoke.txt

# Diff the perf benchmark set against the last entry of the append-only
# ledger (bench/LEDGER.ndjson). The slow million-node suite (BuildDirect,
# MemoryFootprint) is deliberately not run here — CI's perf job runs it —
# so the gate's skip list excuses exactly those ledger entries; any other
# missing benchmark still fails. To record a new entry after a deliberate
# perf change:
#   awk -f scripts/benchledger.awk -v mode=append -v label=PRn \
#       /tmp/bench-ledger.txt >> bench/LEDGER.ndjson
bench-ledger:
	go test -run '^$$' -bench 'StepHotLoop|OverlayChurnStep|NeighborWalk|SweepSharedGraph|WorldReset|SweepPooledWorld|RunnerSerialVsParallel|BatchStep|BatchVsScalarSweep' -benchtime 100ms . > /tmp/bench-ledger.txt
	@cat /tmp/bench-ledger.txt
	awk -f scripts/benchledger.awk -v mode=gate -v factor=3 -v skip='^BenchmarkBuildDirect/|^BenchmarkMemoryFootprint$$' bench/LEDGER.ndjson /tmp/bench-ledger.txt
	awk -f scripts/benchgate.awk -v mode=ratio -v metric='ns/rw' -v num='^BenchmarkBatchVsScalarSweep/batch' -v den='^BenchmarkBatchVsScalarSweep/scalar' -v factor=1.15 /tmp/bench-ledger.txt
