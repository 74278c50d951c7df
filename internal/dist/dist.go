// Package dist implements the probability machinery LogNIC's traffic
// handling relies on: discrete packet-size distributions (the dist_size
// parameter from Table 2 of the paper), and the Poisson inter-arrival
// sampler the traffic generators use to realize the M/M/1/N assumption of
// Poisson request arrivals.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"lognic/internal/unit"
)

// SizePoint is one (packet size, probability weight) pair of a discrete
// packet-size distribution.
type SizePoint struct {
	Size   unit.Size
	Weight float64
}

// SizeDist is a discrete distribution over packet sizes. The zero value is
// invalid; construct with NewSizeDist or Fixed.
type SizeDist struct {
	points []SizePoint // normalized, sorted by size, cumulative cached
	cum    []float64
}

// Fixed returns a distribution concentrated on a single packet size.
// The size must be positive.
func Fixed(size unit.Size) (SizeDist, error) {
	return NewSizeDist([]SizePoint{{Size: size, Weight: 1}})
}

// NewSizeDist validates and normalizes a set of size points. Duplicate
// sizes are merged. Weights must be non-negative with a positive sum and
// sizes must be positive.
func NewSizeDist(points []SizePoint) (SizeDist, error) {
	if len(points) == 0 {
		return SizeDist{}, errors.New("dist: size distribution needs at least one point")
	}
	merged := map[unit.Size]float64{}
	total := 0.0
	for _, p := range points {
		if p.Size <= 0 {
			return SizeDist{}, fmt.Errorf("dist: non-positive packet size %v", float64(p.Size))
		}
		if p.Weight < 0 || math.IsNaN(p.Weight) || math.IsInf(p.Weight, 0) {
			return SizeDist{}, fmt.Errorf("dist: invalid weight %v for size %v", p.Weight, float64(p.Size))
		}
		merged[p.Size] += p.Weight
		total += p.Weight
	}
	if total <= 0 {
		return SizeDist{}, errors.New("dist: weights sum to zero")
	}
	out := make([]SizePoint, 0, len(merged))
	for s, w := range merged {
		if w == 0 {
			continue
		}
		out = append(out, SizePoint{Size: s, Weight: w / total})
	}
	if len(out) == 0 {
		return SizeDist{}, errors.New("dist: all weights zero")
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Size < out[j].Size })
	cum := make([]float64, len(out))
	acc := 0.0
	for i, p := range out {
		acc += p.Weight
		cum[i] = acc
	}
	cum[len(cum)-1] = 1 // guard against float drift
	return SizeDist{points: out, cum: cum}, nil
}

// Points returns the normalized (size, weight) pairs sorted by size. The
// returned slice is a copy.
func (d SizeDist) Points() []SizePoint {
	out := make([]SizePoint, len(d.points))
	copy(out, d.points)
	return out
}

// NumPoints reports how many distinct sizes the distribution carries.
func (d SizeDist) NumPoints() int { return len(d.points) }

// Mean returns the expected packet size.
func (d SizeDist) Mean() unit.Size {
	m := 0.0
	for _, p := range d.points {
		m += p.Weight * float64(p.Size)
	}
	return unit.Size(m)
}

// Min and Max return the distribution's support bounds.
func (d SizeDist) Min() unit.Size {
	if len(d.points) == 0 {
		return 0
	}
	return d.points[0].Size
}

// Max returns the largest packet size with non-zero probability.
func (d SizeDist) Max() unit.Size {
	if len(d.points) == 0 {
		return 0
	}
	return d.points[len(d.points)-1].Size
}

// Sample draws a packet size using the provided RNG.
func (d SizeDist) Sample(rng *rand.Rand) unit.Size {
	if len(d.points) == 0 {
		return 0
	}
	u := rng.Float64()
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.points) {
		i = len(d.points) - 1
	}
	return d.points[i].Size
}

// String renders the distribution like "64B:50%,512B:50%".
func (d SizeDist) String() string {
	var b strings.Builder
	for i, p := range d.points {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s:%.4g%%", p.Size, p.Weight*100)
	}
	return b.String()
}

// ByteWeights converts probability-by-packet weights into
// fraction-of-bytes weights: a 1500B packet carries more of the offered
// load than a 64B one. LogNIC's Extension #2 mixes per-size estimates using
// byte fractions when the metric is bandwidth.
func (d SizeDist) ByteWeights() []SizePoint {
	mean := float64(d.Mean())
	out := make([]SizePoint, len(d.points))
	for i, p := range d.points {
		out[i] = SizePoint{Size: p.Size, Weight: p.Weight * float64(p.Size) / mean}
	}
	return out
}

// PoissonInterArrival draws the gap until the next arrival of a Poisson
// process with the given rate (events/second).
func PoissonInterArrival(rng *rand.Rand, rate float64) float64 {
	if rate <= 0 {
		return math.Inf(1)
	}
	return rng.ExpFloat64() / rate
}
