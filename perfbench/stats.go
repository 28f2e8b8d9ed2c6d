package main

import (
	"math"
	"sort"
)

// dist summarizes one latency sample set the way every latency metric is
// reported: the median, plus the highest percentile that still has at least
// ten samples beyond it (p99 once there are a thousand samples).
type dist struct {
	n     int
	p50   float64
	tail  float64
	tailP int // percentile of tail; 100 means the maximum (fewer than 11 samples)
}

// tailPercentile returns the highest integer percentile p ≤ 99 whose
// nearest-rank value leaves at least ten samples beyond it in a set of n, or
// 100 when no percentile does (then the tail is reported as the maximum).
func tailPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		if n-rank(n, float64(p)) >= 10 {
			return p
		}
	}
	return 100
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// summarize sorts xs in place and returns its dist.
func summarize(xs []float64) dist {
	d := dist{n: len(xs)}
	if len(xs) == 0 {
		return d
	}
	sort.Float64s(xs)
	d.p50 = xs[rank(len(xs), 50)-1]
	d.tailP = tailPercentile(len(xs))
	if d.tailP == 100 {
		d.tail = xs[len(xs)-1]
	} else {
		d.tail = xs[rank(len(xs), float64(d.tailP))-1]
	}
	return d
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
