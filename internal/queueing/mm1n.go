// Package queueing implements the finite-capacity Markovian queue formulas
// LogNIC's latency model is built on (paper §3.6, Equations 9–12), plus an
// M/M/c/K generalization used by ablation benchmarks. The paper observes
// that data-center request arrivals are well approximated by a Poisson
// process and IP service times by an exponential distribution, and applies
// the M/M/1/N queue to each (virtual) IP after concatenating its disjoint
// queues into one logical queue.
//
// # Numerical behavior near saturation
//
// The closed forms are evaluated stably in the near-saturation regime the
// paper's Figures 6 and 11 probe hardest (ρ → 1, large Erlang loads),
// where textbook expressions lose precision or overflow:
//
//   - geometric partial sums Σ ρ^n switch from the direct
//     (1−ρ^{N+1})/(1−ρ) form — which cancels catastrophically when
//     ρ^{N+1} ≈ 1 — to an expm1/log1p evaluation that stays accurate to
//     a few ULPs arbitrarily close to ρ = 1 (StateProb, BlockingProb);
//   - the mean-occupancy expression ρ/(1−ρ) − Mρ^M/(1−ρ^M) uses a
//     second-order series around ρ = 1 (MeanOccupancy, QueueingDelay);
//   - M/M/c/K state weights are renormalized incrementally while they
//     accumulate, so offered loads large enough to overflow a^n/n! still
//     yield finite, correctly normalized probabilities;
//   - M/G/1, whose infinite queue has no steady state at ρ ≥ 1, reports
//     +Inf delay instead of the meaningless negative value the
//     Pollaczek–Khinchine formula would produce when Validate is skipped.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// MM1N describes an M/M/1/N queue: Poisson arrivals at rate Lambda,
// exponential service at rate Mu, a single server, and room for N requests
// in the system (the paper's queue capacity parameter N_vi). Arrivals that
// find the system full are dropped.
type MM1N struct {
	Lambda   float64 // arrival rate, requests/second
	Mu       float64 // service rate, requests/second
	Capacity int     // N: max requests in the system, >= 1
}

// Validate reports whether the queue parameters are usable.
func (q MM1N) Validate() error {
	if q.Lambda < 0 || math.IsNaN(q.Lambda) || math.IsInf(q.Lambda, 0) {
		return fmt.Errorf("queueing: invalid arrival rate %v", q.Lambda)
	}
	if q.Mu <= 0 || math.IsNaN(q.Mu) || math.IsInf(q.Mu, 0) {
		return fmt.Errorf("queueing: invalid service rate %v", q.Mu)
	}
	if q.Capacity < 1 {
		return fmt.Errorf("queueing: capacity %d < 1", q.Capacity)
	}
	return nil
}

// Rho returns the offered utilization ρ = λ/μ (Equation 10). It may exceed 1
// for an overloaded finite queue; the closed forms remain well defined.
func (q MM1N) Rho() float64 { return q.Lambda / q.Mu }

// geometricSum returns Σ_{n=0}^{N} ρ^n, handling ρ=1 exactly. The direct
// closed form (1−ρ^{N+1})/(1−ρ) cancels catastrophically when ρ^{N+1} ≈ 1
// — i.e. when (N+1)·|ρ−1| is small — losing a relative accuracy of about
// ε/((N+1)|ρ−1|); with ρ−1 = 1e-12 and N = 64 that is every significant
// digit. In that regime the sum is evaluated as
// expm1((N+1)·log1p(ρ−1))/(ρ−1), which never subtracts nearby values and
// stays within a few ULPs of the exact sum arbitrarily close to ρ = 1 (the
// same near-1 treatment finiteGeomMean applies via its series expansion).
func geometricSum(rho float64, n int) float64 {
	d := rho - 1
	if d == 0 {
		return float64(n + 1)
	}
	if math.Abs(d)*float64(n+1) < 0.1 {
		return math.Expm1(float64(n+1)*math.Log1p(d)) / d
	}
	return (1 - math.Pow(rho, float64(n+1))) / (1 - rho)
}

// StateProb returns Pro_k, the steady-state probability of k requests in
// the system (Equation 10): ρ^k / Σ_{n=0}^{N} ρ^n.
func (q MM1N) StateProb(k int) float64 {
	if k < 0 || k > q.Capacity {
		return 0
	}
	rho := q.Rho()
	if rho == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	return math.Pow(rho, float64(k)) / geometricSum(rho, q.Capacity)
}

// BlockingProb returns Pro_N, the probability an arrival is dropped because
// the queue is full — the paper reads this as the packet dropping rate.
func (q MM1N) BlockingProb() float64 { return q.StateProb(q.Capacity) }

// finiteGeomMean evaluates g(ρ, M) = ρ/(1−ρ) − M·ρ^M/(1−ρ^M), the
// recurring expression behind both the mean occupancy (with M = N+1) and
// Equation 12's queueing delay (with M = N). It is the mean of the
// truncated geometric distribution p_n ∝ ρ^n on {0..M−1}, so in terms of
// β = ln ρ it equals d/dβ ln[(e^{Mβ}−1)/(e^β−1)], whose expansion around
// saturation is
//
//	g = (M−1)/2 + (M²−1)β/12 − (M⁴−1)β³/720 + (M⁶−1)β⁵/30240 − …
//
// Direct evaluation subtracts two terms of magnitude ~1/|β| to produce a
// result of magnitude ~M/2, amplifying rounding error by ~2/(M|β|); the
// series is therefore used whenever M|β| < 0.05 (truncation error there is
// below 1e-14 relative), which both fixes the catastrophic loss the old
// narrow |ρ−1| < 1e-4/M guard allowed just outside its band and keeps the
// well-conditioned direct path — and the values it has always produced —
// for the rest of the range.
func finiteGeomMean(rho float64, m int) float64 {
	if rho == 0 {
		return 0
	}
	mf := float64(m)
	beta := math.Log1p(rho - 1) // ln ρ, computed without cancellation near 1
	if u := mf * beta; math.Abs(u) < 0.05 {
		b2 := beta * beta
		m2 := mf * mf
		return (mf-1)/2 + beta*((m2-1)/12-b2*((m2*m2-1)/720-b2*(m2*m2*m2-1)/30240))
	}
	rm := math.Pow(rho, mf)
	return rho/(1-rho) - mf*rm/(1-rm)
}

// MeanOccupancy returns L = Σ_{n=0}^{N} n·Pro_n, the average number of
// requests in the system, via the identity
// L = ρ/(1−ρ) − (N+1)ρ^{N+1}/(1−ρ^{N+1}).
func (q MM1N) MeanOccupancy() float64 {
	return finiteGeomMean(q.Rho(), q.Capacity+1)
}

// EffectiveArrivalRate returns λe = λ(1 − Pro_N), the rate of requests
// actually admitted.
func (q MM1N) EffectiveArrivalRate() float64 {
	return q.Lambda * (1 - q.BlockingProb())
}

// MeanWait returns W = L/λe, the mean time an admitted request spends in
// the system (queueing + service), by Little's law.
func (q MM1N) MeanWait() float64 {
	if q.Lambda == 0 {
		return 1 / q.Mu
	}
	return q.MeanOccupancy() / q.EffectiveArrivalRate()
}

// QueueingDelay returns Q = L/λe − 1/μ (Equation 9), the mean time an
// admitted request waits before service starts. Equation 12 of the paper
// gives the equivalent closed form Q = (1/μ)(ρ/(1−ρ) − Nρ^N/(1−ρ^N));
// QueueingDelayClosedForm implements that expression and the two agree to
// rounding (see the tests).
func (q MM1N) QueueingDelay() float64 {
	d := q.MeanWait() - 1/q.Mu
	if d < 0 {
		// Float drift for tiny ρ; delay is physically non-negative.
		return 0
	}
	return d
}

// QueueingDelayClosedForm evaluates Equation 12:
// Q = (1/μ)(ρ/(1−ρ) − Nρ^N/(1−ρ^N)), with the ρ→1 limit (N−1)/(2μ).
func (q MM1N) QueueingDelayClosedForm() float64 {
	v := finiteGeomMean(q.Rho(), q.Capacity) / q.Mu
	if v < 0 {
		return 0
	}
	return v
}

// Throughput returns the rate of completed requests, min-limited by the
// admitted load: λe (every admitted request is eventually served).
func (q MM1N) Throughput() float64 { return q.EffectiveArrivalRate() }

// MMcK describes an M/M/c/K queue: c parallel exponential servers and room
// for K requests in the system (K >= c). LogNIC's IP blocks have n parallel
// engines behind a shared logical queue; the paper folds parallelism into
// λ and μ instead (Equation 11), and the ablation bench compares the two
// treatments.
type MMcK struct {
	Lambda   float64
	Mu       float64 // per-server service rate
	Servers  int     // c
	Capacity int     // K, total in system
}

// Validate reports whether the queue parameters are usable.
func (q MMcK) Validate() error {
	if q.Lambda < 0 || math.IsNaN(q.Lambda) || math.IsInf(q.Lambda, 0) {
		return fmt.Errorf("queueing: invalid arrival rate %v", q.Lambda)
	}
	if q.Mu <= 0 || math.IsNaN(q.Mu) || math.IsInf(q.Mu, 0) {
		return fmt.Errorf("queueing: invalid service rate %v", q.Mu)
	}
	if q.Servers < 1 {
		return fmt.Errorf("queueing: servers %d < 1", q.Servers)
	}
	if q.Capacity < q.Servers {
		return errors.New("queueing: capacity must be >= servers")
	}
	return nil
}

// rescaleLimit triggers in-place renormalization of the M/M/c/K state
// weights: once their running sum exceeds it, every accumulated weight is
// divided through. 1e290 leaves ~18 orders of magnitude of headroom before
// math.MaxFloat64, so the next ratio step cannot overflow.
const rescaleLimit = 1e290

// stateWeights returns the steady-state weights w_n (w_0 starts at 1)
// together with their sum, for n = 0..K. Because w_n grows like a^n/n! for
// n ≤ c and like (a/c)^n beyond, a large offered load a overflows the raw
// recurrence to +Inf long before normalization — which used to turn every
// probability into NaN (Inf/Inf). The weights are therefore renormalized
// incrementally while they accumulate: only the ratios w_n/Σw matter, so
// dividing everything accumulated so far by the running sum whenever it
// nears overflow preserves the result exactly while keeping every
// intermediate finite. Callers must use the returned sum rather than
// re-accumulating the slice.
func (q MMcK) stateWeights() ([]float64, float64) {
	c := q.Servers
	k := q.Capacity
	a := q.Lambda / q.Mu // offered load in Erlangs
	w := make([]float64, k+1)
	w[0] = 1
	sum := 1.0
	for n := 1; n <= k; n++ {
		servers := math.Min(float64(n), float64(c))
		w[n] = w[n-1] * a / servers
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

// StateProb returns the steady-state probability of n requests in system.
func (q MMcK) StateProb(n int) float64 {
	if n < 0 || n > q.Capacity {
		return 0
	}
	w, sum := q.stateWeights()
	return w[n] / sum
}

// solve builds the state weights once and returns the blocking
// probability w_K/Σw and the mean occupancy Σn·w_n/Σw.
func (q MMcK) solve() (blocking, occupancy float64) {
	w, sum := q.stateWeights()
	l := 0.0
	for n, v := range w {
		l += float64(n) * v
	}
	return w[q.Capacity] / sum, l / sum
}

// Solve returns the mean pre-service wait of admitted requests and the
// probability an arrival is dropped, from one build of the state weights
// (latency evaluation needs both for every M/M/c/K vertex).
func (q MMcK) Solve() (delay, blocking float64) {
	blocking, occupancy := q.solve()
	le := q.Lambda * (1 - blocking)
	if le == 0 {
		return 0, blocking
	}
	if delay = occupancy/le - 1/q.Mu; delay < 0 {
		delay = 0
	}
	return delay, blocking
}

// BlockingProb returns the probability an arrival is dropped.
func (q MMcK) BlockingProb() float64 {
	_, b := q.Solve()
	return b
}

// MeanOccupancy returns the average number of requests in the system.
func (q MMcK) MeanOccupancy() float64 {
	_, l := q.solve()
	return l
}

// EffectiveArrivalRate returns λ(1 − blocking).
func (q MMcK) EffectiveArrivalRate() float64 {
	return q.Lambda * (1 - q.BlockingProb())
}

// QueueingDelay returns the mean pre-service wait for admitted requests.
func (q MMcK) QueueingDelay() float64 {
	d, _ := q.Solve()
	return d
}

// MG1 describes an M/G/1 queue via the Pollaczek–Khinchine formula:
// Poisson arrivals, a single server with general service times of rate Mu
// and squared coefficient of variation CV2 (1 = exponential, 0 =
// deterministic), and an infinite queue. The simulator's
// DeterministicService mode behaves like CV2 = 0; comparing MG1 against
// MM1N quantifies how much of the modeled delay comes from the
// exponential-service assumption.
type MG1 struct {
	Lambda float64 // arrival rate, requests/second
	Mu     float64 // service rate, requests/second
	CV2    float64 // squared coefficient of variation of service times
}

// Validate reports whether the queue parameters are usable (requires
// ρ < 1; the infinite queue has no steady state otherwise).
func (q MG1) Validate() error {
	if q.Lambda < 0 || math.IsNaN(q.Lambda) || math.IsInf(q.Lambda, 0) {
		return fmt.Errorf("queueing: invalid arrival rate %v", q.Lambda)
	}
	if q.Mu <= 0 || math.IsNaN(q.Mu) || math.IsInf(q.Mu, 0) {
		return fmt.Errorf("queueing: invalid service rate %v", q.Mu)
	}
	if q.CV2 < 0 || math.IsNaN(q.CV2) || math.IsInf(q.CV2, 0) {
		return fmt.Errorf("queueing: invalid CV² %v", q.CV2)
	}
	if q.Lambda >= q.Mu {
		return errors.New("queueing: M/G/1 requires λ < μ")
	}
	return nil
}

// QueueingDelay returns the mean pre-service wait
// W_q = ρ/(1−ρ) · (1+CV²)/2 · E[S]. Like MM1N.QueueingDelay it guards the
// regimes where the raw formula turns unphysical when Validate was
// skipped: at ρ ≥ 1 the infinite queue has no steady state, so the delay
// is +Inf rather than the negative value 1−ρ would produce.
func (q MG1) QueueingDelay() float64 {
	rho := q.Lambda / q.Mu
	if rho <= 0 {
		return 0
	}
	if rho >= 1 {
		return math.Inf(1)
	}
	return rho / (1 - rho) * (1 + q.CV2) / 2 / q.Mu
}

// MeanWait returns the mean time in system (wait plus service).
func (q MG1) MeanWait() float64 { return q.QueueingDelay() + 1/q.Mu }
