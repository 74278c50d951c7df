package sim

import "math"

// sampleSet accumulates scalar observations and reports moments and
// quantiles. It keeps all samples; evaluation runs are bounded well below
// memory limits, and exact quantiles keep validation against the analytical
// model honest. values stays in insertion (chronological) order; quantile
// selects on a cached copy so observers reading the raw series see it
// intact.
type sampleSet struct {
	values []float64
	sum    float64
	work   []float64 // copy of values that quantile partitions
	cut    int       // the last index selected in work
}

func (s *sampleSet) add(v float64) {
	s.values = append(s.values, v)
	s.sum += v
	if s.work != nil {
		// Guarded: storing even a nil pointer pays a GC write barrier
		// while a collection is marking.
		s.work = nil
	}
}

func (s *sampleSet) count() int { return len(s.values) }

func (s *sampleSet) mean() float64 {
	if len(s.values) == 0 {
		return 0
	}
	return s.sum / float64(len(s.values))
}

// quantile returns the q-quantile (0..1) by linear interpolation between
// the two order statistics around q·(n-1). It finds them by selection,
// not a full sort; they are the values sort.Float64s would put at those
// positions, so the result is the same bits.
func (s *sampleSet) quantile(q float64) float64 {
	n := len(s.values)
	if n == 0 {
		return 0
	}
	if s.work == nil {
		s.work = append(make([]float64, 0, n), s.values...)
		s.cut = -1
	}
	if q <= 0 {
		return s.nth(0)
	}
	if q >= 1 {
		return s.nth(n - 1)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	vlo := s.nth(lo)
	if lo == hi {
		return vlo
	}
	// Selection left everything after lo not less than vlo, so the next
	// order statistic is the least of those.
	vhi := s.work[hi]
	for _, v := range s.work[hi+1:] {
		if floatLess(v, vhi) {
			vhi = v
		}
	}
	frac := pos - float64(lo)
	return vlo*(1-frac) + vhi*frac
}

// nth returns the k-th order statistic of work. Every selection leaves
// work partitioned at the index it selected, so a later one searches only
// the side of the last cut that holds k: P95 after P50 scans half.
func (s *sampleSet) nth(k int) float64 {
	lo, hi := 0, len(s.work)
	switch c := s.cut; {
	case c < 0:
	case k > c:
		lo = c + 1
	case k < c:
		hi = c
	default:
		return s.work[c]
	}
	s.cut = k
	return selectKth(s.work[lo:hi], k-lo)
}

// floatLess is sort.Float64s's order: ascending, NaNs first.
func floatLess(a, b float64) bool {
	return a < b || (a != a && b == b)
}

// selectKth rearranges a so that a[k] holds the value sort.Float64s would
// put there, with nothing after it less and nothing before it greater, and
// returns it. It is quickselect with a median-of-three pivot and a
// three-way partition, so a run of ties is settled in one pass.
func selectKth(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		p := a[lo+(hi-lo)/2]
		x, z := a[lo], a[hi]
		if floatLess(x, z) {
			x, z = z, x
		}
		// Now z ≤ x: the pivot is the middle of the three.
		if floatLess(x, p) {
			p = x
		} else if floatLess(p, z) {
			p = z
		}
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch v := a[i]; {
			case floatLess(v, p):
				a[lt], a[i] = v, a[lt]
				lt++
				i++
			case floatLess(p, v):
				a[i], a[gt] = a[gt], v
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return a[k]
		}
	}
	return a[k]
}

// timeWeighted integrates a step function of time (queue length, busy
// engines) to report its time average over the observed window.
type timeWeighted struct {
	firstTime float64
	lastTime  float64
	lastValue float64
	integral  float64
	started   bool
}

func (t *timeWeighted) set(now, value float64) {
	if t.started {
		t.integral += t.lastValue * (now - t.lastTime)
	} else {
		t.firstTime = now
	}
	t.lastTime = now
	t.lastValue = value
	t.started = true
}

// average is the time average over the observed window [firstTime, now].
// Dividing by the window — not by absolute now — keeps the statistic
// unbiased for observers that start mid-run (after a warmup, or at the
// first fault event): the unobserved prefix contributes neither to the
// integral nor to the denominator.
func (t *timeWeighted) average(now float64) float64 {
	if !t.started || now <= t.firstTime {
		return 0
	}
	total := t.integral + t.lastValue*(now-t.lastTime)
	return total / (now - t.firstTime)
}

// rebase restarts the observation window at now, discarding everything
// integrated so far but keeping the current value. The simulator calls it
// at the end of warmup so reported averages cover only the measurement
// window, consistent with throughput and link utilization.
func (t *timeWeighted) rebase(now float64) {
	if !t.started {
		return
	}
	t.integral = 0
	t.firstTime = now
	t.lastTime = now
}

// total is the raw integral up to now (e.g. engine-seconds of downtime),
// independent of when observation started.
func (t *timeWeighted) total(now float64) float64 {
	if !t.started || now <= t.firstTime {
		return 0
	}
	return t.integral + t.lastValue*(now-t.lastTime)
}
