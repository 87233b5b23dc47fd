package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count), or 0 for no samples. xs is not modified.
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

// tailCap is the highest percentile tail reports: the p90 of job_p90_s.
const tailCap = 90

// tail returns the highest whole percentile p <= tailCap whose nearest-rank
// value still has at least ten samples beyond it, that value, and the sample
// count. With fewer than eleven samples no percentile qualifies: ok is false
// and the caller reports the median instead.
func tail(xs []float64) (p int, v float64, n int, ok bool) {
	n = len(xs)
	if n < 11 {
		return 0, 0, n, false
	}
	// Nearest rank r = ceil(p·n/100) leaves n−r samples beyond it; n−r >= 10
	// holds exactly when p <= 100·(n−10)/n.
	p = min(100*(n-10)/n, tailCap)
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return p, sorted(xs)[r-1], n, true
}

// geomean is the geometric mean of positive xs, or 0 for no samples.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
