package queueing

// Regression tests for the near-saturation numerical fixes: StateProb /
// BlockingProb against a big.Float direct-sum oracle arbitrarily close to
// ρ=1, M/M/c/K state weights at offered loads that overflow the raw
// recurrence, and M/G/1 overload guards. See the package comment's
// "Numerical behavior near saturation" section.

import (
	"math"
	"math/big"
	"testing"
)

const oraclePrec = 256

// mm1nOracle computes the M/M/1/N blocking probability and mean occupancy
// by direct summation in 256-bit arithmetic — no closed forms, no
// cancellation, the ground truth the fast paths must match.
func mm1nOracle(rho float64, capN int) (blocking, meanOcc float64) {
	r := new(big.Float).SetPrec(oraclePrec).SetFloat64(rho)
	term := big.NewFloat(1).SetPrec(oraclePrec) // ρ^n
	sum := big.NewFloat(0).SetPrec(oraclePrec)  // Σ ρ^n
	occ := big.NewFloat(0).SetPrec(oraclePrec)  // Σ n·ρ^n
	for n := 0; n <= capN; n++ {
		sum.Add(sum, term)
		w := new(big.Float).SetPrec(oraclePrec).Mul(term, big.NewFloat(float64(n)))
		occ.Add(occ, w)
		term = new(big.Float).SetPrec(oraclePrec).Mul(term, r)
	}
	top := new(big.Float).SetPrec(oraclePrec).SetFloat64(rho)
	pN := big.NewFloat(1).SetPrec(oraclePrec)
	for n := 0; n < capN; n++ {
		pN.Mul(pN, top)
	}
	pN.Quo(pN, sum)
	occ.Quo(occ, sum)
	b, _ := pN.Float64()
	l, _ := occ.Float64()
	return b, l
}

// relErr is the relative error of got against a non-zero oracle value.
func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

// Near ρ=1 the direct (1−ρ^{N+1})/(1−ρ) evaluation loses ~ε/((N+1)|ρ−1|)
// relative accuracy — every digit by |ρ−1| ≈ 1e-12. The expm1/log1p path
// must track the direct-sum oracle to ~1e-12 relative error no matter how
// close ρ sits to 1.
func TestStateProbNearSaturationOracle(t *testing.T) {
	for _, capN := range []int{1, 4, 64, 1024} {
		for _, d := range []float64{
			1e-3, -1e-3, 1e-5, -1e-5, 1e-7, -1e-7,
			1e-9, -1e-9, 1e-12, -1e-12, 1e-14, -1e-14,
		} {
			rho := 1 + d
			q := MM1N{Lambda: rho * 7, Mu: 7, Capacity: capN}
			// Build the queue from ρ directly so the oracle sees the
			// exact same float64 ratio.
			rho = q.Rho()
			wantB, wantL := mm1nOracle(rho, capN)
			if e := relErr(q.BlockingProb(), wantB); e > 1e-12 {
				t.Errorf("N=%d ρ=1%+g: BlockingProb = %v, oracle %v (rel err %.3g)",
					capN, d, q.BlockingProb(), wantB, e)
			}
			if e := relErr(q.MeanOccupancy(), wantL); e > 1e-10 {
				t.Errorf("N=%d ρ=1%+g: MeanOccupancy = %v, oracle %v (rel err %.3g)",
					capN, d, q.MeanOccupancy(), wantL, e)
			}
			sum := 0.0
			for k := 0; k <= capN; k++ {
				sum += q.StateProb(k)
			}
			if e := relErr(sum, 1); capN <= 64 && e > 1e-11 {
				t.Errorf("N=%d ρ=1%+g: state probs sum to %v", capN, d, sum)
			}
		}
	}
}

// Away from saturation the stable path must agree with the (accurate
// there) direct form — the fix may not perturb the regime the existing
// goldens cover.
func TestStateProbFarFromSaturationUnchanged(t *testing.T) {
	for _, rho := range []float64{0.05, 0.5, 0.9, 1.2, 3, 20} {
		for _, capN := range []int{1, 8, 64} {
			q := MM1N{Lambda: rho, Mu: 1, Capacity: capN}
			wantB, _ := mm1nOracle(q.Rho(), capN)
			if e := relErr(q.BlockingProb(), wantB); e > 1e-12 {
				t.Errorf("ρ=%v N=%d: BlockingProb rel err %.3g", rho, capN, e)
			}
		}
	}
}

// geometricSum itself, across the threshold between the two evaluation
// paths: both sides of |ρ−1|·(N+1) = 0.1 must agree with the oracle and
// with each other to rounding, so the path switch is seamless.
func TestGeometricSumPathBoundary(t *testing.T) {
	for _, capN := range []int{9, 99, 999} {
		for _, scale := range []float64{0.99, 1.01} { // straddle the 0.1 threshold
			d := 0.1 * scale / float64(capN+1)
			for _, sign := range []float64{1, -1} {
				rho := 1 + sign*d
				got := geometricSum(rho, capN)
				r := new(big.Float).SetPrec(oraclePrec).SetFloat64(rho)
				term := big.NewFloat(1).SetPrec(oraclePrec)
				sum := big.NewFloat(0).SetPrec(oraclePrec)
				for n := 0; n <= capN; n++ {
					sum.Add(sum, term)
					term = new(big.Float).SetPrec(oraclePrec).Mul(term, r)
				}
				want, _ := sum.Float64()
				if e := relErr(got, want); e > 1e-12 {
					t.Errorf("N=%d ρ=1%+g: geometricSum = %v, oracle %v (rel err %.3g)",
						capN, sign*d, got, want, e)
				}
			}
		}
	}
}

// mmckOracle computes M/M/c/K blocking and occupancy by direct big.Float
// accumulation of the birth–death weights.
func mmckOracle(q MMcK) (blocking, meanOcc float64) {
	a := new(big.Float).SetPrec(oraclePrec).SetFloat64(q.Lambda / q.Mu)
	w := big.NewFloat(1).SetPrec(oraclePrec)
	sum := big.NewFloat(1).SetPrec(oraclePrec)
	occ := big.NewFloat(0).SetPrec(oraclePrec)
	for n := 1; n <= q.Capacity; n++ {
		servers := math.Min(float64(n), float64(q.Servers))
		w = new(big.Float).SetPrec(oraclePrec).Mul(w, a)
		w.Quo(w, big.NewFloat(servers))
		sum.Add(sum, w)
		occ.Add(occ, new(big.Float).SetPrec(oraclePrec).Mul(w, big.NewFloat(float64(n))))
	}
	last := new(big.Float).SetPrec(oraclePrec).Quo(w, sum)
	occ.Quo(occ, sum)
	b, _ := last.Float64()
	l, _ := occ.Float64()
	return b, l
}

// Offered loads whose raw weights overflow float64 (a^n/n! → +Inf) used to
// yield NaN probabilities; incremental renormalization must keep every
// statistic finite, normalized, and matching the oracle.
func TestMMcKLargeOfferedLoadNoOverflow(t *testing.T) {
	cases := []MMcK{
		{Lambda: 1e6, Mu: 1, Servers: 4, Capacity: 500},
		{Lambda: 5e3, Mu: 1, Servers: 8, Capacity: 2000},
		{Lambda: 1e150, Mu: 1, Servers: 2, Capacity: 64},
		{Lambda: 3e5, Mu: 2, Servers: 1, Capacity: 300},
	}
	for _, q := range cases {
		if err := q.Validate(); err != nil {
			t.Fatalf("%+v: %v", q, err)
		}
		b := q.BlockingProb()
		if math.IsNaN(b) || b < 0 || b > 1 {
			t.Fatalf("%+v: BlockingProb = %v, want a probability", q, b)
		}
		l := q.MeanOccupancy()
		if math.IsNaN(l) || l < 0 || l > float64(q.Capacity) {
			t.Fatalf("%+v: MeanOccupancy = %v, want within [0, K]", q, l)
		}
		wantB, wantL := mmckOracle(q)
		if e := relErr(b, wantB); e > 1e-10 {
			t.Errorf("%+v: blocking = %v, oracle %v (rel err %.3g)", q, b, wantB, e)
		}
		if e := relErr(l, wantL); e > 1e-10 {
			t.Errorf("%+v: occupancy = %v, oracle %v (rel err %.3g)", q, l, wantL, e)
		}
		sum := 0.0
		for n := 0; n <= q.Capacity; n++ {
			sum += q.StateProb(n)
		}
		if e := relErr(sum, 1); e > 1e-9 {
			t.Errorf("%+v: state probs sum to %v", q, sum)
		}
		if d := q.QueueingDelay(); math.IsNaN(d) || d < 0 {
			t.Errorf("%+v: QueueingDelay = %v", q, d)
		}
	}
}

// Moderate loads take the no-rescale path and must be bit-identical to the
// pre-fix evaluation (same recurrence, same accumulation order).
func TestMMcKModerateLoadBitIdentical(t *testing.T) {
	q := MMcK{Lambda: 8, Mu: 3, Servers: 4, Capacity: 16}
	// Pre-fix reference: raw weights, then normalize.
	a := q.Lambda / q.Mu
	w := make([]float64, q.Capacity+1)
	w[0] = 1
	for n := 1; n <= q.Capacity; n++ {
		servers := math.Min(float64(n), float64(q.Servers))
		w[n] = w[n-1] * a / servers
	}
	sum := 0.0
	for _, v := range w {
		sum += v
	}
	for n := 0; n <= q.Capacity; n++ {
		if got, want := q.StateProb(n), w[n]/sum; got != want {
			t.Fatalf("StateProb(%d) = %v, pre-fix value %v", n, got, want)
		}
	}
}

// M/G/1 at ρ ≥ 1 has no steady state; with Validate skipped the raw
// Pollaczek–Khinchine formula returned a negative delay. It must now read
// +Inf (and stay finite/positive just below saturation).
func TestMG1OverloadGuard(t *testing.T) {
	for _, lambda := range []float64{5, 5.0001, 8, 1000} {
		q := MG1{Lambda: lambda, Mu: 5, CV2: 1}
		if d := q.QueueingDelay(); !math.IsInf(d, 1) {
			t.Errorf("λ=%v: QueueingDelay = %v, want +Inf at ρ ≥ 1", lambda, d)
		}
		if w := q.MeanWait(); !math.IsInf(w, 1) {
			t.Errorf("λ=%v: MeanWait = %v, want +Inf at ρ ≥ 1", lambda, w)
		}
	}
	// Just below saturation: finite, positive, and exploding as ρ → 1.
	prev := 0.0
	for _, lambda := range []float64{4, 4.9, 4.999, 4.99999} {
		q := MG1{Lambda: lambda, Mu: 5, CV2: 1}
		d := q.QueueingDelay()
		if math.IsInf(d, 0) || math.IsNaN(d) || d <= prev {
			t.Fatalf("λ=%v: QueueingDelay = %v, want finite and increasing", lambda, d)
		}
		prev = d
	}
}

// threeBuildMMcK is the M/M/c/K evaluation vertexTiming made before the
// one-build solve: QueueingDelay built the state weights twice (once for
// the blocking inside EffectiveArrivalRate, once for MeanOccupancy) and
// BlockingProb built them a third time. It is kept here, verbatim in its
// arithmetic, as the reference the one-build solve must match bit for bit.
func threeBuildMMcK(q MMcK) (delay, blocking float64) {
	weights := func() ([]float64, float64) {
		a := q.Lambda / q.Mu
		w := make([]float64, q.Capacity+1)
		w[0] = 1
		sum := 1.0
		for n := 1; n <= q.Capacity; n++ {
			w[n] = w[n-1] * a / math.Min(float64(n), float64(q.Servers))
			sum += w[n]
			if sum > rescaleLimit {
				inv := 1 / sum
				for i := 0; i <= n; i++ {
					w[i] *= inv
				}
				sum = 1
			}
		}
		return w, sum
	}
	blockingProb := func() float64 {
		w, sum := weights()
		return w[q.Capacity] / sum
	}
	le := q.Lambda * (1 - blockingProb())
	if le != 0 {
		w, sum := weights()
		l := 0.0
		for n, v := range w {
			l += float64(n) * v
		}
		if delay = (l/sum)/le - 1/q.Mu; delay < 0 {
			delay = 0
		}
	}
	return delay, blockingProb()
}

// TestMMcKSolveBitIdentical checks Solve, and the accessors written in
// terms of it, against the three-build reference over a grid of (λ, μ, c, K) that includes zero
// load, light and heavy load, and offered loads large enough that the
// running weight sum passes rescaleLimit and renormalizes mid-build.
func TestMMcKSolveBitIdentical(t *testing.T) {
	rescaled := 0
	for _, lambda := range []float64{0, 1e-3, 0.5, 3, 8, 64, 1e3, 1e6, 1e150} {
		for _, mu := range []float64{0.25, 1, 3, 1e4} {
			for _, c := range []int{1, 2, 4, 16, 64} {
				for _, extra := range []int{0, 1, 15, 255, 2000} {
					q := MMcK{Lambda: lambda, Mu: mu, Servers: c, Capacity: c + extra}
					wantD, wantB := threeBuildMMcK(q)
					gotD, gotB := q.Solve()
					if math.Float64bits(gotD) != math.Float64bits(wantD) ||
						math.Float64bits(gotB) != math.Float64bits(wantB) {
						t.Errorf("%+v: Solve = (%v, %v), three-build (%v, %v)",
							q, gotD, gotB, wantD, wantB)
					}
					if d, b := q.QueueingDelay(), q.BlockingProb(); math.Float64bits(d) != math.Float64bits(wantD) ||
						math.Float64bits(b) != math.Float64bits(wantB) {
						t.Errorf("%+v: accessors = (%v, %v), three-build (%v, %v)", q, d, b, wantD, wantB)
					}
					if a := lambda / mu; a > 1 && float64(q.Capacity)*math.Log10(a/float64(c)) > 300 {
						rescaled++
					}
				}
			}
		}
	}
	if rescaled == 0 {
		t.Fatal("grid never reaches the rescale regime")
	}
}
