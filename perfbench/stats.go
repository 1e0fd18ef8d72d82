package main

import (
	"math"
	"sort"
	"time"
)

// samples is a list of durations with order statistics. Percentiles use the
// nearest-rank method, so every reported value is one that was observed.
type samples []time.Duration

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1) of s, and 0 for
// an empty list. It sorts s in place.
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond counts the samples strictly above the q-quantile's rank: the
// support a reported percentile rests on. A p99 over fewer than 1000
// samples has fewer than ten samples beyond it.
func (s samples) beyond(q float64) int {
	return len(s) - int(math.Ceil(q*float64(len(s))))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a small float list (set-up repeats); sorts in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
