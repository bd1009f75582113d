package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) (method "exclusive") computes
// them, the convention the README's spreads are quoted in.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs(q3-q1) / math.Abs(m)
}

// tail returns the highest percentile of xs that still has at least ten
// samples beyond it, with that percentile's value; ok is false below
// forty samples, where such a percentile would be no tail.
func tail(xs []float64) (pct float64, v float64, ok bool) {
	n := len(xs)
	if n < 40 {
		return 0, 0, false
	}
	s := sorted(xs)
	idx := n - 11 // ten samples lie above s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx], true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's peak resident set (Linux reports
// maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapAllocBytes returns the cumulative bytes allocated on the Go heap
// (runtime.MemStats.TotalAlloc), read without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}
