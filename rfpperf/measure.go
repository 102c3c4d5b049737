package main

// End-to-end figures are computed here from the benchmark's own per-op
// records. This file must not import the program's stats, telemetry,
// experiments or scenario packages (TestRulerImports enforces it): those
// are due to be merged and rewritten, and a ruler built on them would move
// with the code it measures.

import (
	"math"
	"sort"
)

// inf is a failed operation's latency: it misses every limit, so it sorts
// past every real sample.
const inf = int64(math.MaxInt64)

// minBeyond is how many samples must be ranked beyond the highest
// percentile reported.
const minBeyond = 10

// rank returns the 1-based nearest rank of the pct-th percentile among n
// samples: the smallest r with r ≥ pct·n/100. Integer arithmetic keeps
// 99% of 1000 at exactly rank 990.
func rank(pct, n int) int {
	return max((pct*n+99)/100, 1)
}

// quantile returns the mid-distribution q-quantile of sorted samples
// (Parzen's mid-quantile): each distinct value v sits at its mid-rank
// position m(v) = (#below + #equal/2)/n, and q is interpolated linearly
// between the two values whose positions bracket it. Without ties this is
// the Hazen quantile. Virtual latencies are lattice-valued (multiples of
// NIC engine slots), so most samples share a few values; a nearest-rank
// percentile then reads the same tie value until a shift of mass crosses
// the rank, while the mid-quantile moves with the mass inside the tie. A
// bracket that reaches a failed op (inf) gives +Inf. ok is false for an
// empty sample.
func quantile(sorted []int64, q float64) (v float64, ok bool) {
	n := float64(len(sorted))
	if n == 0 {
		return 0, false
	}
	prevV, prevM := 0.0, 0.0
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		m := (float64(i) + float64(j-i)/2) / n
		cur := nsValue(sorted[i])
		if math.IsInf(cur, 1) {
			// Failed ops form the top atom; it starts where the finite
			// samples end, so q lands on it only when more than 1-q of
			// the ops failed.
			if i > 0 && q <= float64(i)/n {
				return prevV, true
			}
			return cur, true
		}
		if q <= m {
			if i == 0 {
				return cur, true
			}
			return prevV + (q-prevM)/(m-prevM)*(cur-prevV), true
		}
		prevV, prevM = cur, m
		i = j
	}
	return prevV, true
}

func nsValue(ns int64) float64 {
	if ns == inf {
		return math.Inf(1)
	}
	return float64(ns)
}

// latency summarises one op kind's latency samples (virtual ns).
type latency struct {
	N        int     // samples, failures included
	Failed   int     // samples that are inf
	P50, P99 float64 // mid-quantiles
	Beyond99 int     // samples ranked beyond the 99th percentile
}

// summarise sorts samples in place and reports its percentiles.
func summarise(samples []int64) latency {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	l := latency{N: len(samples)}
	for i := len(samples) - 1; i >= 0 && samples[i] == inf; i-- {
		l.Failed++
	}
	l.P50, _ = quantile(samples, 0.50)
	l.P99, _ = quantile(samples, 0.99)
	if l.N > 0 {
		l.Beyond99 = l.N - rank(99, l.N)
	}
	return l
}

// usable reports why the summary cannot back a p99, or "" when it can.
func (l latency) usable() string {
	switch {
	case l.Beyond99 < minBeyond:
		return "fewer than 10 samples beyond p99"
	case math.IsInf(l.P99, 1):
		return "p99 is a failed op"
	}
	return ""
}

// median returns the median of xs (mean of the middle two for even n), 0
// when empty. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}
