package main

import (
	"fmt"
	"sort"

	"lite/internal/simtime"
)

// minBeyond is how many samples must lie above a percentile for it to
// be reported: a p999 over 2000 samples would rest on two values.
const minBeyond = 10

// pct is one percentile as a fraction num/den, kept integral so the
// rank arithmetic is exact (0.999*n in floating point can round the
// wrong way).
type pct struct {
	name     string
	num, den int
}

var (
	p50  = pct{"p50", 50, 100}
	p99  = pct{"p99", 99, 100}
	p999 = pct{"p999", 999, 1000}
)

// quantile returns the exact nearest-rank percentile of xs (the
// smallest sample with at least num/den of the samples at or below
// it), and how many samples lie beyond that rank. xs must be sorted.
// ok is false when fewer than minBeyond samples lie beyond it, in
// which case the percentile is not reported.
func quantile(xs []simtime.Time, q pct) (v simtime.Time, beyond int, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	rank := (n*q.num + q.den - 1) / q.den // ceil(n*q), 1-based
	if rank < 1 {
		rank = 1
	}
	beyond = n - rank
	return xs[rank-1], beyond, beyond >= minBeyond
}

// sortTimes sorts latencies in place and returns them.
func sortTimes(xs []simtime.Time) []simtime.Time {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs
}

// mustQuantile is quantile for a percentile the workload is sized to
// always report; a shortfall means the workload definition is wrong.
func mustQuantile(xs []simtime.Time, q pct, what string) (float64, error) {
	v, beyond, ok := quantile(xs, q)
	if !ok {
		return 0, fmt.Errorf("%s %s: only %d of %d samples beyond it, need %d", what, q.name, beyond, len(xs), minBeyond)
	}
	return float64(v) / 1e3, nil
}

// median returns the median of xs (mean of the middle pair for even
// lengths); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
