package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
	"time"
)

// machine is the record every result carries, so a figure can be read
// against the host that produced it.
type machine struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	CalibMS    float64 `json:"calib_ms"` // median time of calibrate()
}

func machineRecord() machine {
	ms := make([]float64, 5)
	for i := range ms {
		t0 := time.Now()
		calibSink = calibrate()
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return machine{GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(),
		CPU: cpuModel(), Go: runtime.Version(), CalibMS: median(ms)}
}

// calibSink keeps calibrate's result live.
var calibSink uint64

// calibrate is a fixed single-core integer loop: 2^24 SplitMix64 steps.
func calibrate() uint64 {
	var x uint64
	for i := 0; i < 1<<24; i++ {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		x ^= z ^ (z >> 31)
	}
	return x
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
