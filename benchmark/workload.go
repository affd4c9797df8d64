package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// workload is one set of inputs the benchmark runs. fig6 and the three
// serve workloads implement it.
type workload interface {
	info() (name, why string, opsPerRound, clients int)
	// setup builds everything that precedes the first timed op. It may be
	// called again; each call starts from nothing.
	setup() error
	// round runs one round of opsPerRound ops and times it.
	round() roundStats
	// verify runs the correctness checks that were put off until the timed
	// rounds were over, and returns how many ops failed them.
	verify() int
	// tracePass runs the traced run's ops on one goroutine, recording
	// spans into rec.
	tracePass(rec *spanRecorder) (passStats, error)
	// layerTimes splits the traced passes' op time among the layers.
	layerTimes(spans []span, pass passStats, probe *probeResult) (byLayer map[string]float64, opTime float64)
}

// roundStats is one timed round.
type roundStats struct {
	ops      int
	failed   int
	p50, p95 time.Duration // of the ops' wall times, nearest rank
	counts   serveCounts

	wall       time.Duration
	cpu        time.Duration // process user+system time
	allocBytes uint64
	allocs     uint64
	gcPause    time.Duration
}

// passStats is one single-goroutine pass of the traced run.
type passStats struct {
	ops    int
	counts serveCounts
}

// timed runs fn, which fills lat with one wall time per op, and returns
// what the process spent on it. It collects garbage first so that one round
// does not pay for the previous one's.
func timed(lat []time.Duration, fn func()) roundStats {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	fn()
	wall := time.Since(start)
	cpu1 := processCPU()
	runtime.ReadMemStats(&m1)
	slices.Sort(lat)
	return roundStats{
		ops:        len(lat),
		p50:        percentile(lat, 50),
		p95:        percentile(lat, 95),
		wall:       wall,
		cpu:        cpu1 - cpu0,
		allocBytes: m1.TotalAlloc - m0.TotalAlloc,
		allocs:     m1.Mallocs - m0.Mallocs,
		gcPause:    time.Duration(m1.PauseTotalNs - m0.PauseTotalNs),
	}
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
