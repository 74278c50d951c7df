package main

import (
	"fmt"
	"math"
	"sort"
)

// sample is a set of timings (or counts) with the percentile rule the
// benchmark reports by: nearest rank over the sorted values.
type sample []float64

// sorted returns a sorted copy, leaving the receiver untouched.
func (s sample) sorted() sample {
	out := append(sample(nil), s...)
	sort.Float64s(out)
	return out
}

// rank is the nearest-rank index of quantile q (0 < q <= 1) in n sorted
// values: the smallest index whose value has at least q·n values at or
// below it.
func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// quantile returns the nearest-rank q-quantile of s (0 for an empty set).
func (s sample) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	ss := s.sorted()
	return ss[rank(len(ss), q)]
}

// beyond counts the samples strictly above the q-quantile's rank: the
// support a reported tail percentile stands on.
func (s sample) beyond(q float64) int {
	if len(s) == 0 {
		return 0
	}
	return len(s) - 1 - rank(len(s), q)
}

// sum totals the samples.
func (s sample) sum() float64 {
	var t float64
	for _, v := range s {
		t += v
	}
	return t
}

// minTail is the fewest samples a reported tail percentile may leave
// beyond itself.
const minTail = 10

// checkTail refuses a tail percentile that too few samples support.
func (s sample) checkTail(name string, q float64) error {
	if b := s.beyond(q); b < minTail {
		return fmt.Errorf("%s: %d samples leave %d beyond p%g, need %d", name, len(s), b, q*100, minTail)
	}
	return nil
}
