package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (NaN for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func p99(xs []float64) float64 { return quantile(xs, 0.99) }

// windowMedian applies f to each run of n consecutive values of xs (a
// trailing partial window is dropped) and returns the median result: a
// statistic that a stall of the shared machine covering a minority of the
// windows does not move. Fewer than n values make one window of them all.
func windowMedian(xs []float64, n int, f func([]float64) float64) float64 {
	if len(xs) < n {
		return f(xs)
	}
	var per []float64
	for lo := 0; lo+n <= len(xs); lo += n {
		per = append(per, f(xs[lo:lo+n]))
	}
	return median(per)
}

// opsPerSec is operations per second over ms-valued operation times.
func opsPerSec(times []float64) float64 {
	var total float64
	for _, t := range times {
		total += t
	}
	return float64(len(times)) * 1000 / total
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, NaN when b is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medianOf times fn n times and returns the median duration in seconds.
func medianOf(n int, fn func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}
