package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0..100) of sorted values by the
// nearest-rank rule. Empty input reads as 0.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps a rank that is a whole number in exact arithmetic
	// (p = 100*k/n) from being rounded up by floating-point error.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailPercentile is the percentile reported as the tail of n samples: 99
// when at least ten samples lie beyond it (n >= 1000), otherwise the
// highest percentile that still has ten samples beyond it. With ten or
// fewer samples there is no such percentile and the median is all the
// sample supports.
func tailPercentile(n int) float64 {
	if n >= 1000 {
		return 99
	}
	if n <= 20 {
		return 50
	}
	return 100 * float64(n-10) / float64(n)
}

func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), so
// the spread this program prints is the spread the driver computes.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 { // i-th of the 3 cut points, 1-based
		pos := float64(i*(n+1)) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spreadShare is the quartile distance as a share of the median.
func spreadShare(values []float64) float64 {
	m := median(values)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(m)
}

// medianTime times fn reps times and returns the median in microseconds.
func medianTime(reps int, fn func()) float64 {
	us := make([]float64, reps)
	for i := range us {
		start := time.Now()
		fn()
		us[i] = float64(time.Since(start).Nanoseconds()) / 1e3
	}
	return median(us)
}
