package main

import (
	"math"
	"sort"
	"time"
)

// Histogram geometry: buckets grow by 1% from 100ns, so any two values in
// one bucket differ by at most 1%; 2,200 buckets reach past 5 minutes, far
// beyond any call timeout.
const (
	histMinNs   = 100.0
	histGrowth  = 1.01
	histBuckets = 2200
)

var histLogGrowth = math.Log(histGrowth)

// hist is a fixed-bucket log histogram of durations. It keeps no
// per-sample state, so recording is allocation-free however long the run.
// It is not safe for concurrent use: each client records into its own and
// the harness merges them.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
}

func (h *hist) record(d time.Duration) {
	i := 0
	if ns := float64(d); ns > histMinNs {
		i = int(math.Log(ns/histMinNs) / histLogGrowth)
		if i >= histBuckets {
			i = histBuckets - 1
		}
	}
	h.counts[i]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile (0 < q ≤ 1) in nanoseconds: the ⌈q·n⌉-th
// smallest sample, placed inside its bucket by its rank among the bucket's
// samples — so the result stays within the bucket's 1%, and two runs that
// land in the same bucket still read differently. NaN when empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			within := (float64(rank-(cum-c)) - 0.5) / float64(c)
			return histMinNs * math.Pow(histGrowth, float64(i)+within)
		}
	}
	return histMinNs * math.Pow(histGrowth, histBuckets)
}

// tailPercentiles are the candidates for "the highest percentile that still
// has at least ten samples beyond it".
var tailPercentiles = []float64{0.5, 0.9, 0.95, 0.99, 0.999, 0.9999}

// highestResolvable returns the largest candidate percentile with at least
// ten samples above it, or 0 when even the median has fewer.
func (h *hist) highestResolvable() float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(h.n)*(1-p) >= 10-1e-6 { // 100*(1-0.9) is 9.999...98 in floating point
			best = p
		}
	}
	return best
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) (the exclusive
// method), which is what the benchmark's acceptance check uses, so a spread
// printed here is the spread it will see. Fewer than two values have no
// spread: all three quartiles are the value itself.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the inter-quartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 || math.IsNaN(m) {
		return 0
	}
	return (q3 - q1) / m
}
