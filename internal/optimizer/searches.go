package optimizer

import (
	"errors"
	"fmt"
	"math"

	"lognic/internal/apps"
	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/numopt"
)

// TuneParallelism is the §4.4 search: find the NIC-core allocation across a
// microservice chain's stages that maximizes attainable throughput under
// the core budget (the paper's "optimal parallelism degree D_vi at each
// vertex"). Ties break toward fewer total cores, then lower latency.
func TuneParallelism(d devices.LiquidIO2, chain apps.ServiceChain, totalCores int, offeredBW float64) (apps.Allocation, error) {
	k := len(chain.Stages)
	if k == 0 {
		return apps.Allocation{}, errors.New("optimizer: empty chain")
	}
	if totalCores < k {
		return apps.Allocation{}, fmt.Errorf("optimizer: %d cores cannot cover %d stages", totalCores, k)
	}
	ranges := make([]numopt.IntRange, k)
	for i := range ranges {
		ranges[i] = numopt.IntRange{Lo: 1, Hi: totalCores - (k - 1)}
	}
	eval := func(x []int) float64 {
		sum := 0
		for _, c := range x {
			sum += c
		}
		if sum > totalCores {
			return math.Inf(1)
		}
		m, err := apps.MicroserviceModel(d, chain, apps.Allocation{Name: "cand", Cores: x}, offeredBW)
		if err != nil {
			return math.Inf(1)
		}
		rep, err := m.SaturationThroughput()
		if err != nil {
			return math.Inf(1)
		}
		// Prefer fewer cores at equal throughput (tiny tie-break term).
		return -rep.Attainable * (1 - 1e-9*float64(sum))
	}
	res, err := numopt.IntSearch(eval, ranges, 1<<18)
	if err != nil {
		return apps.Allocation{}, err
	}
	if math.IsInf(res.F, 1) {
		return apps.Allocation{}, errors.New("optimizer: no feasible allocation")
	}
	return apps.Allocation{Name: "LogNIC-Opt", Cores: res.X}, nil
}

// PlaceNFs is the §4.5 search: enumerate every feasible placement of the
// middlebox chain and pick the one with the best attainable throughput at
// the given packet size, breaking ties toward lower average latency — "the
// placement that offers the best throughput without over-subscribing the
// hardware resource".
func PlaceNFs(d devices.BlueField2, chain []apps.NF, packetBytes, offeredBW float64) (apps.Placement, error) {
	if len(chain) == 0 {
		return nil, errors.New("optimizer: empty chain")
	}
	type cand struct {
		p       apps.Placement
		thr     float64
		latency float64
	}
	var best *cand
	for _, p := range apps.Placements(chain) {
		m, err := apps.NFChainModel(d, chain, p, packetBytes, offeredBW)
		if err != nil {
			return nil, err
		}
		sat, err := m.SaturationThroughput()
		if err != nil {
			return nil, err
		}
		lr, err := m.Latency()
		if err != nil {
			return nil, err
		}
		c := cand{p: p, thr: sat.Attainable, latency: lr.Attainable}
		if best == nil ||
			c.thr > best.thr*(1+1e-9) ||
			(approxEq(c.thr, best.thr) && c.latency < best.latency) {
			cc := c
			best = &cc
		}
	}
	return best.p, nil
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// SizeCredits is the §4.6 scenario-#1 search: the minimal per-unit credit
// count whose goodput (throughput after M/M/1/N drops) stays within
// tolerance of the fully provisioned configuration — "the minimal amount
// of credits that saves the hardware resource without hurting throughput".
// build must map a credit count to a model.
func SizeCredits(build func(credits int) (core.Model, error), maxCredits int, tolerance float64) (int, error) {
	if build == nil {
		return 0, errors.New("optimizer: nil build")
	}
	if maxCredits < 1 {
		return 0, fmt.Errorf("optimizer: maxCredits %d < 1", maxCredits)
	}
	if tolerance <= 0 {
		tolerance = 0.01
	}
	return smallestWithin(build, maxCredits, MaximizeGoodput, func(score, ref float64) bool {
		// Goodput scores are negated; compare the goodputs themselves.
		return -score >= (1-tolerance)*-ref
	})
}

// smallestWithin is the bounded search behind SizeCredits and
// TuneUnitParallelism: the smallest k in 1..hi whose goal score is
// within tolerance of score(hi), as within judges, or hi when none is.
func smallestWithin(build func(k int) (core.Model, error), hi int, goal Goal, within func(score, ref float64) bool) (int, error) {
	score := func(k int) (float64, error) {
		m, err := build(k)
		if err != nil {
			return 0, err
		}
		return Score(m, goal)
	}
	ref, err := score(hi)
	if err != nil {
		return 0, err
	}
	for k := 1; k <= hi; k++ {
		v, err := score(k)
		if err != nil {
			return 0, err
		}
		if within(v, ref) {
			return k, nil
		}
	}
	return hi, nil
}

// SteerTraffic is the §4.6 scenario-#2 search: the traffic share x ∈
// [lo, hi] (the paper's X%) minimizing average latency. build maps the
// share to a model; the search is golden-section (the objective is
// unimodal: a convex combination of per-unit queueing curves).
func SteerTraffic(build func(x float64) (core.Model, error), lo, hi float64) (float64, error) {
	if build == nil {
		return 0, errors.New("optimizer: nil build")
	}
	if !(lo < hi) {
		return 0, fmt.Errorf("optimizer: bad bracket [%v, %v]", lo, hi)
	}
	obj := func(x float64) float64 {
		m, err := build(x)
		if err != nil {
			return math.Inf(1)
		}
		v, err := Score(m, MinimizeLatency)
		if err != nil {
			return math.Inf(1)
		}
		return v
	}
	x, fx, err := numopt.GoldenSection(obj, lo, hi, 1e-4)
	if err != nil {
		return 0, err
	}
	if math.IsInf(fx, 1) {
		return 0, errors.New("optimizer: no feasible steering point")
	}
	return x, nil
}

// TuneUnitParallelism is the §4.6 scenario-#3 search: the smallest IP
// parallel degree whose average latency is within tolerance of the fully
// parallel configuration — "the minimal amount of resource provisioning".
// build maps a lane count to a model.
func TuneUnitParallelism(build func(lanes int) (core.Model, error), maxLanes int, tolerance float64) (int, error) {
	if build == nil {
		return 0, errors.New("optimizer: nil build")
	}
	if maxLanes < 1 {
		return 0, fmt.Errorf("optimizer: maxLanes %d < 1", maxLanes)
	}
	if tolerance <= 0 {
		tolerance = 0.05
	}
	return smallestWithin(build, maxLanes, MinimizeLatency, func(lat, ref float64) bool {
		return lat <= (1+tolerance)*ref
	})
}
