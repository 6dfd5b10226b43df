package main

import (
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's resident-set high-water mark in MB
// (ru_maxrss, which Linux reports in KiB and /proc shows as VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// mallocs returns the cumulative count of heap objects allocated by the
// whole process.
func mallocs() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs need not be sorted and is left untouched.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
