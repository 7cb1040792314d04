package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// oracle is the exact q-quantile of a sample: the ⌈q·n⌉-th smallest value.
func oracle(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func TestHistQuantileWithinOnePercent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []struct {
		name string
		draw func() float64 // nanoseconds
	}{
		{"uniform 10us-1ms", func() float64 { return 1e4 + rng.Float64()*1e6 }},
		{"lognormal around 60us", func() float64 { return 6e4 * math.Exp(rng.NormFloat64()) }},
		{"bimodal 50us/5ms", func() float64 {
			if rng.Intn(10) == 0 {
				return 5e6 * (1 + rng.Float64()/10)
			}
			return 5e4 * (1 + rng.Float64()/10)
		}},
		{"constant", func() float64 { return 123456 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var h hist
			var xs []float64
			for i := 0; i < 50000; i++ {
				ns := math.Round(tc.draw())
				xs = append(xs, ns)
				h.record(time.Duration(ns))
			}
			sort.Float64s(xs)
			for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999, 1} {
				got, want := h.quantile(q), oracle(xs, q)
				if rel := math.Abs(got-want) / want; rel > 0.01 {
					t.Errorf("q=%g: histogram %.0f, exact %.0f (off by %.2f%%)", q, got, want, 100*rel)
				}
			}
		})
	}
}

func TestHistEdges(t *testing.T) {
	var h hist
	if !math.IsNaN(h.quantile(0.5)) {
		t.Error("empty histogram should have no quantile")
	}
	h.record(0)
	h.record(time.Hour) // beyond the last bucket: clamped, not dropped
	if h.n != 2 {
		t.Fatalf("n = %d, want 2", h.n)
	}
	if got := h.quantile(1); got < float64(4*time.Minute) {
		t.Errorf("clamped sample reads %v, want the top bucket", time.Duration(got))
	}
	var a, b hist
	a.record(time.Millisecond)
	b.record(time.Millisecond)
	b.record(time.Second)
	a.merge(&b)
	if a.n != 3 || a.quantile(0.5) > 1.01e6 {
		t.Errorf("merge: n=%d p50=%v", a.n, a.quantile(0.5))
	}
}

func TestHighestResolvable(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 0}, {20, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		var h hist
		for i := 0; i < tc.n; i++ {
			h.record(time.Microsecond)
		}
		if got := h.highestResolvable(); got != tc.want {
			t.Errorf("n=%d: highest resolvable percentile %g, want %g", tc.n, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6}, 1.75, 3.5, 5.25},
		{[]float64{6, 1, 5, 2, 4, 3}, 1.75, 3.5, 5.25},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 27.5, 55, 82.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %g, want 2", got)
	}
}
