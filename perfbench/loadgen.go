package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// mmpp is a two-state Markov-modulated Poisson process: arrivals at rate
// calm or burst per second, switching calm→burst at rate toBurst and
// burst→calm at rate toCalm. Its inter-arrival times have a squared
// coefficient of variation above 1 (a Poisson stream has exactly 1),
// which is what makes bursts reach the server's shedding path.
type mmpp struct {
	calm, burst     float64 // arrival rates, 1/s
	toBurst, toCalm float64 // switching rates, 1/s
}

// arrivals are one generated schedule.
type arrivals struct {
	due     []time.Duration // offset of each arrival from the start
	inBurst []bool          // whether it arrived in the burst state
}

// generate draws n arrivals, starting in the calm state.
func (m mmpp) generate(rng *rand.Rand, n int) arrivals {
	a := arrivals{due: make([]time.Duration, 0, n), inBurst: make([]bool, 0, n)}
	t, burst := 0.0, false
	for len(a.due) < n {
		rate, leave := m.calm, m.toBurst
		if burst {
			rate, leave = m.burst, m.toCalm
		}
		t += rng.ExpFloat64() / (rate + leave)
		if rng.Float64()*(rate+leave) < leave {
			burst = !burst
			continue
		}
		a.due = append(a.due, time.Duration(t*float64(time.Second)))
		a.inBurst = append(a.inBurst, burst)
	}
	return a
}

// gaps returns the inter-arrival times in seconds.
func (a arrivals) gaps() []float64 {
	g := make([]float64, 0, len(a.due))
	prev := time.Duration(0)
	for _, d := range a.due {
		g = append(g, (d - prev).Seconds())
		prev = d
	}
	return g
}

func (a arrivals) burstShare() float64 {
	n := 0
	for _, b := range a.inBurst {
		if b {
			n++
		}
	}
	return float64(n) / float64(len(a.inBurst))
}

// zipfMix returns n pool indices in a seeded random order whose counts
// follow Zipf popularity exactly: index r appears in proportion to
// 1/(r+1)^s, rounded by largest remainder. Fixing the mix rather than
// drawing each index keeps one seed's request mix from drifting away
// from another's, so the seed moves the order, not the workload.
func zipfMix(rng *rand.Rand, s float64, size, n int) []int {
	w := make([]float64, size)
	var sum float64
	for r := range w {
		w[r] = math.Pow(float64(r+1), -s)
		sum += w[r]
	}
	counts := make([]int, size)
	rest := make([]int, size)
	left := n
	for r := range w {
		counts[r] = int(float64(n) * w[r] / sum)
		left -= counts[r]
		rest[r] = r
	}
	frac := func(r int) float64 { return float64(n)*w[r]/sum - float64(counts[r]) }
	sort.SliceStable(rest, func(a, b int) bool { return frac(rest[a]) > frac(rest[b]) })
	for _, r := range rest[:left] {
		counts[r]++
	}
	out := make([]int, 0, n)
	for r, c := range counts {
		for i := 0; i < c; i++ {
			out = append(out, r)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
