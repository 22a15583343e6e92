package main

import (
	"testing"

	"lite/internal/simtime"
)

func TestQuantileNearestRank(t *testing.T) {
	// 1..2000 ns: the nearest-rank p50 is the 1000th sample, p99 the
	// 1980th, p999 the 1998th (two beyond: not reportable).
	xs := make([]simtime.Time, 2000)
	for i := range xs {
		xs[len(xs)-1-i] = simtime.Time(i + 1)
	}
	sortTimes(xs)
	for _, c := range []struct {
		q      pct
		v      simtime.Time
		beyond int
		ok     bool
	}{
		{p50, 1000, 1000, true},
		{p99, 1980, 20, true},
		{p999, 1998, 2, false},
	} {
		v, beyond, ok := quantile(xs, c.q)
		if v != c.v || beyond != c.beyond || ok != c.ok {
			t.Errorf("%s = (%v, %d, %v), want (%v, %d, %v)", c.q.name, v, beyond, ok, c.v, c.beyond, c.ok)
		}
	}
	// The power-of-two bucketed estimate this replaces can be off by
	// tens of percent; the exact one must hit a sample exactly.
	if v, _, _ := quantile([]simtime.Time{7}, p50); v != 7 {
		t.Errorf("single-sample p50 = %v, want 7", v)
	}
	if _, _, ok := quantile(nil, p50); ok {
		t.Error("empty input reported a percentile")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}
