package main

import (
	"math/rand"
	"sort"
	"testing"
)

// oracle is the nearest-rank quantile by definition: the smallest value
// with at least q·n values at or below it.
func oracle(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	for _, x := range s {
		n := 0
		for _, v := range s {
			if v <= x {
				n++
			}
		}
		if float64(n) >= q*float64(len(s)) {
			return x
		}
	}
	return s[len(s)-1]
}

func TestQuantileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000, 1234} {
		vals := make(sample, n)
		for i := range vals {
			// Few distinct values, so ties are exercised too.
			vals[i] = float64(rng.Intn(n/2 + 1))
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			if got, want := vals.quantile(q), oracle(vals, q); got != want {
				t.Errorf("n=%d q=%g: quantile %v, oracle %v", n, q, got, want)
			}
		}
	}
}

func TestQuantileLeavesInputUnsorted(t *testing.T) {
	s := sample{3, 1, 2}
	if got := s.quantile(0.5); got != 2 {
		t.Fatalf("median %v, want 2", got)
	}
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Fatalf("quantile reordered its input: %v", s)
	}
}

func TestTailGuard(t *testing.T) {
	s := make(sample, 1000)
	for i := range s {
		s[i] = float64(i)
	}
	// p99 of 1000 values is the 990th; ten lie beyond it.
	if b := s.beyond(0.99); b != 10 {
		t.Fatalf("beyond(0.99) of 1000 = %d, want 10", b)
	}
	if err := s.checkTail("p99", 0.99); err != nil {
		t.Fatalf("1000 samples refused: %v", err)
	}
	if err := s[:999].checkTail("p99", 0.99); err == nil {
		t.Fatal("999 samples accepted for p99")
	}
	if (sample{}).quantile(0.5) != 0 || (sample{}).beyond(0.5) != 0 {
		t.Fatal("empty sample should report 0")
	}
}
