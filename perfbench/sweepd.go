package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/prof"
	"repro/internal/serve"
)

// The sweepd-mmpp workload: an in-process serve.NewServer on loopback
// HTTP with sweepd's defaults (batch 8, GOMAXPROCS workers, phase probes
// on), except a queue shallower than the client's connection count, so a
// burst of misses is shed, and a result cache smaller than the request
// pool, so entries are evicted. One open-loop client sends requests on
// an MMPP schedule over at most sweepdConns connections, drawing them
// with Zipf popularity from a seeded pool. Each load round starts a fresh
// server, so every round begins with a cold cache.
const (
	sweepdConns    = 2   // client connections
	sweepdQueue    = 1   // below sweepdConns
	sweepdCache    = 8   // below len(poolTemplates)
	roundRequests  = 400 // requests per load round
	zipfS          = 1.2
	requestTimeout = 60 * time.Second // client timeout per request
)

// sweepdArrivals: calm 40/s, bursts of 300/s lasting 25 ms on average,
// about six bursts a second; 74 requests/s on average, inter-arrival SCV
// about 2. Many short bursts rather than a few long ones keep one run's
// burst count close to another's.
var sweepdArrivals = mmpp{calm: 40, burst: 300, toBurst: 6, toCalm: 40}

// poolTemplates is the request pool in popularity order (Zipf rank 0
// first). It mixes cheap sweeps, churned and faulted requests (sim/fault,
// graph.Overlay), and capped probes on 256-node graphs where UXS
// certification and the all-pairs diameter dominate. Round caps keep
// each request's cost nearly independent of its seed (an uncapped
// Byzantine sweep ran from 0.1 to 10 s across seeds), and the ranks that
// miss most cost about the same (10–20 ms on a 2-core Xeon), so the tail
// latency rests on many misses rather than on which few were drawn.
var poolTemplates = []string{
	`{"workload":"petersen","k":3,"seeds":4,"max_rounds":3000`,
	`{"workload":"cycle:8","k":3,"seeds":2`,
	`{"workload":"complete:8","k":4,"algo":"hopmeet","seeds":8`,
	`{"workload":"hypercube:8","k":8,"max_rounds":100`,
	`{"workload":"torus:4x4","k":4,"churn":0.2,"seeds":2,"max_rounds":3000`,
	`{"workload":"path:8","k":3,"algo":"dessmark","max_rounds":20000`,
	`{"workload":"grid:4x4","k":4,"seeds":4,"max_rounds":10000`,
	`{"workload":"torus:16x16","k":8,"max_rounds":200`,
	`{"workload":"torus:4x4","k":4,"algo":"uxs","faults":"recover:1,6@3","churn":0.2,"max_rounds":30000`,
	`{"workload":"grid:14x14","k":8,"max_rounds":100`,
	`{"workload":"bintree:31","k":4,"algo":"undispersed","placement":"clustered","seeds":4,"max_rounds":5000`,
	`{"workload":"grid:4x4","k":4,"faults":"byz:1","seeds":2,"max_rounds":15000`,
	`{"workload":"rreg:256,4","k":8,"max_rounds":100`,
	`{"workload":"cycle:12","k":4,"algo":"uxs","max_rounds":25000`,
	`{"workload":"rreg:128,4","k":8,"max_rounds":12000`,
}

// probeTemplate fills the last Zipf rank: a 1024-node probe (about 0.3 s,
// most of it certification and the all-pairs diameter). Each draw
// carries its own seed, so probes never hit the cache or coalesce: two
// connections waiting on one slow key would stall every request behind
// them, and how often that happens in a run, not the code, would set the
// tail latency.
const probeTemplate = `{"workload":"hypercube:10","k":16,"max_rounds":100`

// withSeed completes a template with a request seed.
func withSeed(template string, seed uint64) []byte {
	return []byte(template + `,"seed":` + strconv.FormatUint(seed, 10) + `}`)
}

// requestPool is the fixed pool, the same for every workload seed: the
// seed moves arrivals, order and probes, never what a pool request costs
// (about ±10% across request seeds, which moved p95 by as much).
func requestPool() [][]byte {
	pool := make([][]byte, len(poolTemplates))
	for i, t := range poolTemplates {
		pool[i] = withSeed(t, uint64(i)+1)
	}
	return pool
}

// probe returns the probe request of draw i of schedule n.
func probe(n uint64, i int) []byte {
	return withSeed(probeTemplate, 1+(n*roundRequests+uint64(i))%1_000_000)
}

// schedule is one load round's requests: when each is due and its body.
type schedule struct {
	arr    arrivals
	bodies [][]byte
}

// roundSchedule is load round r of a run: schedule seed+r, so a run's
// rounds span several schedules.
func roundSchedule(seed uint64, round int) schedule {
	n := seed + uint64(round)
	pool := requestPool()
	rng := rand.New(rand.NewSource(int64(n)))
	sch := schedule{arr: sweepdArrivals.generate(rng, roundRequests)}
	for i, rank := range zipfMix(rng, zipfS, len(pool)+1, roundRequests) {
		if rank == len(pool) {
			sch.bodies = append(sch.bodies, probe(n, i))
		} else {
			sch.bodies = append(sch.bodies, pool[rank])
		}
	}
	return sch
}

// poolSweep is the sweep of this workload: every pool request and one
// probe, sent one after another to a fresh server, so each is a miss.
func poolSweep(seed uint64) schedule {
	bodies := append(requestPool(), withSeed(probeTemplate, 1_000_001+seed))
	return schedule{arr: arrivals{due: make([]time.Duration, len(bodies))}, bodies: bodies}
}

// server is one running in-process sweep server.
type server struct {
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{} // closed when Serve has returned
	base   metricsBody   // counters after warm-up
}

// startServer starts a server and warms it up.
func startServer() (*server, error) {
	prof.EnablePhases(true) // sweepd's -phases default
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{
			MaxConnsPerHost: sweepdConns, MaxIdleConnsPerHost: sweepdConns}},
		done: make(chan struct{}),
	}
	s.hs = &http.Server{ReadHeaderTimeout: 10 * time.Second,
		Handler: serve.NewServer(serve.Config{Batch: 8, QueueDepth: sweepdQueue, CacheEntries: sweepdCache})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns ErrServerClosed on stop
	}()
	if err := s.warmUp(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// warmupRequest is outside the pool (pool and probe seeds are at least
// 1): one 256-node probe of about 20 ms.
const warmupRequest = `{"workload":"torus:16x16","k":8,"max_rounds":200,"seed":0}`

// warmUp waits for /healthz, sends warmupRequest, and takes the /metrics
// baseline that metrics() subtracts, so counters cover only what follows.
func (s *server) warmUp() error {
	resp, err := s.client.Get(s.url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp, err = s.client.Post(s.url+"/sweep", "application/json", strings.NewReader(warmupRequest))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("warm-up request: status %d", resp.StatusCode)
	}
	s.base, err = s.metrics()
	return err
}

// stop shuts the server down and waits for it to exit.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) // a timeout leaves nothing to clean up in-process
	<-s.done
	s.client.CloseIdleConnections()
}

// metricsBody mirrors the /metrics response.
type metricsBody struct {
	Cache  serve.CacheStats `json:"cache"`
	Queue  serve.QueueStats `json:"queue"`
	ExecNS int64            `json:"exec_ns"`
}

// metrics reads /metrics, less the warm-up baseline.
func (s *server) metrics() (metricsBody, error) {
	var m metricsBody
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, err
	}
	m.Cache.Hits -= s.base.Cache.Hits
	m.Cache.Misses -= s.base.Cache.Misses
	m.Cache.Coalesced -= s.base.Cache.Coalesced
	m.Cache.Evictions -= s.base.Cache.Evictions
	m.Queue.Rejected -= s.base.Queue.Rejected
	m.ExecNS -= s.base.ExecNS
	return m, nil
}

// reply is one request's outcome, timed from when it was due.
type reply struct {
	req                  []byte
	status               int
	body                 []byte
	err                  error
	late                 time.Duration // dispatcher lateness: handed to a connection after due
	latency, serviceTime time.Duration // done − due; done − sent
}

// loadRound is one schedule played against one fresh server.
type loadRound struct {
	setup    time.Duration // server start, warm-up included
	makespan time.Duration // first due to last reply
	cpu      time.Duration // process CPU during the round
	replies  []reply
	metrics  metricsBody
}

// runRound starts a server, plays the schedule open loop over conns
// client connections and stops the server; a schedule whose requests are
// all due at once, on one connection, sends them back to back. tr, when
// non-nil, records a span per request.
func runRound(sch schedule, conns int, tr *tracer) (loadRound, error) {
	t0 := time.Now()
	s, err := startServer()
	if err != nil {
		return loadRound{}, err
	}
	defer s.stop()
	lr := loadRound{setup: time.Since(t0), replies: make([]reply, len(sch.bodies))}

	cpu0 := processCPU()
	late := make([]time.Duration, len(sch.bodies)) // written by the dispatcher only
	start := time.Now()
	queue := make(chan int, len(sch.bodies)) // holds the whole schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				lr.replies[i] = s.send(sch, i, start, tr)
			}
		}()
	}
	for i, due := range sch.arr.due {
		time.Sleep(time.Until(start.Add(due)))
		late[i] = time.Since(start) - due
		queue <- i
	}
	close(queue)
	wg.Wait()
	lr.makespan = time.Since(start)
	lr.cpu = processCPU() - cpu0
	for i := range lr.replies {
		lr.replies[i].late = late[i]
	}
	lr.metrics, err = s.metrics()
	return lr, err
}

// send posts request i and reads the whole reply.
func (s *server) send(sch schedule, i int, start time.Time, tr *tracer) reply {
	r := reply{req: sch.bodies[i]}
	sp := noParent
	if tr != nil {
		sp = tr.begin("loadgen.request", strconv.Itoa(i), noParent)
	}
	sent := time.Now()
	resp, err := s.client.Post(s.url+"/sweep", "application/json", bytes.NewReader(r.req))
	if err == nil {
		r.status = resp.StatusCode
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	done := time.Now()
	if sp != noParent {
		tr.end(sp)
	}
	r.err = err
	r.serviceTime = done.Sub(sent)
	r.latency = done.Sub(start.Add(sch.arr.due[i]))
	return r
}

// processCPU is this process's user+sys time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSS reads this process's peak resident set (VmHWM) in bytes.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb * 1024
		}
	}
	return 0
}

// verifier checks served bodies against serve.ExecuteNDJSON for the same
// request, executing each distinct request once.
type verifier struct {
	ref map[string][]byte
}

func newVerifier() *verifier {
	return &verifier{ref: map[string][]byte{}}
}

func (v *verifier) reference(req []byte) ([]byte, error) {
	if b, ok := v.ref[string(req)]; ok {
		return b, nil
	}
	parsed, err := serve.ParseSweepRequest(req)
	if err != nil {
		return nil, err
	}
	b, err := serve.ExecuteNDJSON(context.Background(), parsed, serve.ExecConfig{Batch: 8})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", req, err)
	}
	v.ref[string(req)] = b
	return b, nil
}

// tallyRound counts a round's replies: 200 with the reference body is
// ok, 429 is shed, anything else (another status, a transport error, a
// body that differs) is a failed operation.
func (v *verifier) tallyRound(lr loadRound, t *tally) error {
	for _, r := range lr.replies {
		switch {
		case r.err != nil:
			t.record(fmt.Errorf("%s: %w", r.req, r.err))
		case r.status == http.StatusTooManyRequests:
			t.shed()
		case r.status != http.StatusOK:
			t.record(fmt.Errorf("%s: status %d: %s", r.req, r.status, bytes.TrimSpace(r.body)))
		default:
			ref, err := v.reference(r.req)
			if err != nil {
				return err
			}
			if !bytes.Equal(r.body, ref) {
				err = fmt.Errorf("%s: body differs from serve.ExecuteNDJSON", r.req)
			}
			t.record(err)
		}
	}
	return nil
}

// answered returns the 200 replies of a round.
func answered(lr loadRound) []reply {
	var out []reply
	for _, r := range lr.replies {
		if r.err == nil && r.status == http.StatusOK {
			out = append(out, r)
		}
	}
	return out
}

// roundWork is the simulated round×worlds the round's answers carry.
func roundWork(lr loadRound) (float64, error) {
	var rw float64
	for _, r := range answered(lr) {
		a, err := parseAggregate(r.body)
		if err != nil {
			return 0, err
		}
		rw += float64(a.Rounds)
	}
	return rw, nil
}

// sweepdRun is what one run of the workload measured.
type sweepdRun struct {
	setup         []float64 // server starts, seconds
	sweeps, loads []loadRound
}

// poolSweepsPerLoad is how many pool sweeps precede each load round.
const poolSweepsPerLoad = 2

// play measures set-up, then runs pool sweeps and load rounds for the
// window (at least minOps load rounds), or exactly fixed load rounds when
// fixed > 0. Every round starts its own server, and each start is one
// more set-up sample, so the set-up median does not rest on one moment
// of a shared host.
func play(e env, fixed int) (sweepdRun, error) {
	var run sweepdRun
	for i := 0; i < setupSamples; i++ {
		t0 := time.Now()
		s, err := startServer()
		if err != nil {
			return run, err
		}
		run.setup = append(run.setup, time.Since(t0).Seconds())
		s.stop()
	}
	var err error
	loopOps(e.seconds, fixed, 1, func() float64 {
		t0 := time.Now()
		for i := 0; i < poolSweepsPerLoad && err == nil; i++ {
			var sw loadRound
			if sw, err = runRound(poolSweep(e.seed), 1, nil); err == nil {
				run.sweeps = append(run.sweeps, sw)
				run.setup = append(run.setup, sw.setup.Seconds())
			}
		}
		if err == nil {
			var ld loadRound
			if ld, err = runRound(roundSchedule(e.seed, len(run.loads)), sweepdConns, nil); err == nil {
				run.loads = append(run.loads, ld)
				run.setup = append(run.setup, ld.setup.Seconds())
			}
		}
		return time.Since(t0).Seconds()
	})
	return run, err
}

// sweepdUntraced reports: setup_s, the median of every server start in
// the run (listener, serve loop, /healthz, one warm-up request); sweep_s,
// cpu_s and sim_rw_per_s of the pool sweep (every distinct request once,
// serially, all misses: the service's cost per sweep); peak_rss_mb of
// this process (server and client); and req_p50_ms/req_p95_ms, the
// latency of answered load-round requests from when each was due.
// ok_ratio counts every request sent.
func sweepdUntraced(e env) (map[string]metric, *tally, error) {
	run, err := play(e, 0)
	if err != nil {
		return nil, nil, err
	}
	rss := peakRSS()
	t := &tally{}
	v := newVerifier()
	var wall, cpu, rwps, lat []float64
	for _, sw := range run.sweeps {
		if err := v.tallyRound(sw, t); err != nil {
			return nil, t, err
		}
		rw, err := roundWork(sw)
		if err != nil {
			return nil, t, err
		}
		wall = append(wall, sw.makespan.Seconds())
		cpu = append(cpu, sw.cpu.Seconds())
		rwps = append(rwps, rw/sw.makespan.Seconds())
	}
	for _, ld := range run.loads {
		if err := v.tallyRound(ld, t); err != nil {
			return nil, t, err
		}
		for _, r := range answered(ld) {
			lat = append(lat, float64(r.latency.Nanoseconds())/1e6)
		}
	}
	if len(lat) == 0 {
		return nil, t, errors.New("no load-round request was answered")
	}
	p95, err := percentile(lat, 95)
	if err != nil {
		return nil, t, fmt.Errorf("req_p95_ms: %w", err)
	}
	return map[string]metric{
		"setup_s":      {median(run.setup), "s"},
		"sweep_s":      {median(wall), "s"},
		"sim_rw_per_s": {median(rwps), "1/s"},
		"cpu_s":        {median(cpu), "s"},
		"peak_rss_mb":  {rss / 1e6, "MB"},
		"req_p50_ms":   {median(lat), "ms"},
		"req_p95_ms":   {p95, "ms"},
		"ok_ratio":     {t.okRatio(), "ratio"},
	}, t, nil
}

// splitHits replays a schedule serially on a fresh server and sorts each
// answered request by the server's own cache counters, read before and
// after it: a hit or a miss (one request at a time never coalesces). It
// returns their service times in milliseconds and tallies every reply.
func splitHits(sch schedule, v *verifier, t *tally) (hits, misses []float64, err error) {
	s, err := startServer()
	if err != nil {
		return nil, nil, err
	}
	defer s.stop()
	before, err := s.metrics()
	if err != nil {
		return nil, nil, err
	}
	lr := loadRound{replies: make([]reply, len(sch.bodies))}
	start := time.Now()
	for i := range sch.bodies {
		r := s.send(sch, i, start, nil)
		lr.replies[i] = r
		after, err := s.metrics()
		if err != nil {
			return nil, nil, err
		}
		if r.err == nil && r.status == http.StatusOK {
			ms := float64(r.serviceTime.Nanoseconds()) / 1e6
			switch {
			case after.Cache.Hits > before.Cache.Hits:
				hits = append(hits, ms)
			case after.Cache.Misses > before.Cache.Misses:
				misses = append(misses, ms)
			}
		}
		before = after
	}
	return hits, misses, v.tallyRound(lr, t)
}

// sweepdTraced plays one untraced pool sweep for the overhead baseline
// and one load round with a client span per request, and reads the
// server's /metrics. It then replays the round serially to split hits
// from misses (splitHits), and replays the pool sweep's requests and the round's other
// distinct requests serially through the traced replay (phase probes on,
// as in sweepd) to split a miss by layer. Every replayed body must equal
// the served one.
func sweepdTraced(e env) (map[string]metric, *tally, error) {
	sw, err := runRound(poolSweep(e.seed), 1, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	sch := roundSchedule(e.seed, 0)
	lr, err := runRound(sch, sweepdConns, tr)
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	v := newVerifier()
	for _, r := range []loadRound{sw, lr} {
		if err := v.tallyRound(r, t); err != nil {
			return nil, t, err
		}
	}

	vals := map[string]float64{}
	m := lr.metrics
	vals["serve.execute_s"] = float64(m.ExecNS) / 1e9
	vals["serve.cache_hits"], vals["serve.cache_misses"] = float64(m.Cache.Hits), float64(m.Cache.Misses)
	vals["serve.cache_coalesced"], vals["serve.cache_evictions"] = float64(m.Cache.Coalesced), float64(m.Cache.Evictions)
	if n := m.Cache.Hits + m.Cache.Misses + m.Cache.Coalesced; n > 0 {
		vals["serve.cache_hit_ratio"] = float64(m.Cache.Hits) / float64(n)
	}
	vals["serve.queue_rejected"] = float64(m.Queue.Rejected)

	// Replay set: the pool sweep, then the round's other distinct requests.
	var replay [][]byte
	seen := map[string]bool{}
	for _, b := range append(append([][]byte(nil), poolSweep(e.seed).bodies...), sch.bodies...) {
		if !seen[string(b)] {
			seen[string(b)] = true
			replay = append(replay, b)
			if _, err := v.reference(b); err != nil {
				return nil, t, err
			}
		}
	}

	var bytesOut float64
	for _, r := range answered(lr) {
		bytesOut += float64(len(r.body))
	}
	hits, misses, err := splitHits(sch, v, t)
	if err != nil {
		return nil, t, err
	}
	if len(hits) > 0 {
		vals["serve.hit_p50_ms"] = median(hits)
	}
	if len(misses) > 0 {
		vals["serve.miss_p50_ms"] = median(misses)
	}
	vals["serve.response_bytes"] = bytesOut

	var late []float64
	for _, r := range lr.replies {
		late = append(late, float64(r.late.Nanoseconds())/1e6)
	}
	vals["loadgen.requests"] = float64(len(lr.replies))
	vals["loadgen.burst_share"] = sch.arr.burstShare()
	vals["loadgen.scv"] = scv(sch.arr.gaps())
	if p, err := percentile(late, 95); err == nil {
		vals["loadgen.late_p95_ms"] = p
	}

	st := &sweepStats{}
	prof.ResetPhases()
	prof.EnablePhases(true)
	var traced time.Duration
	for i, b := range replay {
		t0 := time.Now()
		body, err := tracedExecute(tr, "replay"+strconv.Itoa(i), b, serve.ExecConfig{Batch: 8}, st)
		if i < len(poolSweep(e.seed).bodies) {
			traced += time.Since(t0)
		}
		if err == nil && !bytes.Equal(body, v.ref[string(b)]) {
			err = fmt.Errorf("%s: traced body differs from serve.ExecuteNDJSON", b)
		}
		t.record(err)
	}
	sweepLayers(vals, tr, st)
	vals["serve.parse_s"] = tr.layers()["serve.parse"].total.Seconds()
	if err := finishTrace(e, "sweepd-mmpp", tr, traced.Seconds(), sw.makespan.Seconds()); err != nil {
		return nil, t, err
	}
	return layerMetrics(vals), t, nil
}
