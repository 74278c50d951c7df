package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// sortQuantile is the reference quantile: sort a copy, then interpolate
// linearly between the order statistics around q·(n-1).
func sortQuantile(values []float64, q float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Selection must find the same order statistics a full sort does, bit for
// bit, however the samples tie and in whatever order the quantiles are
// asked of one set (collect asks P50, P95 and P99 of one cached copy,
// and each selection narrows the next).
func TestQuantileSelectionMatchesSort(t *testing.T) {
	qs := []float64{0, 0.5, 0.95, 0.99, 1}
	r := rand.New(rand.NewSource(1))
	for n := 1; n <= 1000; n++ {
		// Draw from a pool of `distinct` values: 1 is all ties, n is
		// (almost surely) none.
		distinct := 1 + r.Intn(n)
		pool := make([]float64, distinct)
		for i := range pool {
			pool[i] = r.ExpFloat64() * 1e-6
		}
		var s sampleSet
		for i := 0; i < n; i++ {
			s.add(pool[r.Intn(distinct)])
		}
		// Ascending, as collect asks, or scrambled; then everything
		// again on the partitioned cache.
		order := qs
		if n%2 == 1 {
			order = []float64{1, 0.99, 0, 0.95, 0.5}
		}
		for _, q := range append(order, order...) {
			got, want := s.quantile(q), sortQuantile(s.values, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d distinct=%d q=%v: selection %v, sort %v", n, distinct, q, got, want)
			}
		}
	}
}
