package experiments

import (
	"context"
	"fmt"

	"lognic/internal/apps"
	"lognic/internal/core"
	"lognic/internal/devices"
	"lognic/internal/optimizer"
	"lognic/internal/sim"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// fig15Profiles are the four §4.6 scenario-#1 mixed traffic profiles; each
// splits bandwidth equally across its flow sizes.
func fig15Profiles() []struct {
	Name  string
	Sizes []unit.Size
} {
	return []struct {
		Name  string
		Sizes []unit.Size
	}{
		{"TP1(64/512)", []unit.Size{64, 512}},
		{"TP2(64/512/1024)", []unit.Size{64, 512, 1024}},
		{"TP3(64/256/512/1500)", []unit.Size{64, 256, 512, 1500}},
		{"TP4(64/128/256/1024/1500)", []unit.Size{64, 128, 256, 1024, 1500}},
	}
}

// fig15Credits is the provisioning range Figure 15 sweeps.
const fig15Credits = 8

// Fig15 — PANIC Model-1 bandwidth vs provisioned credits 1..8 for four
// mixed traffic profiles (§4.6 scenario #1). Measured by simulation at a
// fixed offered load; the LogNIC-suggested minimal credits per profile are
// available via Fig15SuggestedCredits. The per-profile offered loads come
// from the (deterministic) model, then all profile × credit replications
// fan out over the sweep pool.
func Fig15(opts Options) (Figure, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	d := devices.PANICPrototype()
	profiles := fig15Profiles()
	fig := Figure{
		ID: "fig15", Title: "PANIC bandwidth vs compute-unit credits (Model 1)",
		XLabel: "credits", YLabel: "Bandwidth (Gbps)",
	}
	type prep struct {
		prof traffic.Profile
		mean float64
	}
	preps, err := sweepObs(ctx, opts, "fig15.prep", len(profiles),
		func(_ context.Context, pi int) (prep, error) {
			tp := profiles[pi]
			prof, err := traffic.EqualSplit(tp.Name, unit.Gbps(1), tp.Sizes...)
			if err != nil {
				return prep{}, err
			}
			mean := prof.Sizes.Mean().Bytes()
			offered, err := panicM1Offer(d, mean)
			if err != nil {
				return prep{}, err
			}
			prof.Rate = unit.Bandwidth(offered)
			return prep{prof: prof, mean: mean}, nil
		})
	if err != nil {
		return Figure{}, err
	}
	ys, err := sweepObs(ctx, opts, "fig15", len(profiles)*fig15Credits,
		func(ctx context.Context, ti int) (float64, error) {
			pi, ci := ti/fig15Credits, ti%fig15Credits
			credits := ci + 1
			m, err := apps.PANICPipelined(d, preps[pi].mean, preps[pi].prof.Rate.BytesPerSecond(), credits)
			if err != nil {
				return 0, err
			}
			res, err := runSim(ctx, opts, sim.Config{
				Graph:    m.Graph,
				Hardware: m.Hardware,
				Profile:  preps[pi].prof,
				Seed:     opts.seedFor("fig15", pi, credits),
				Duration: opts.simTime(0.06),
				// PANIC compute units are fixed-function pipelines: their
				// per-packet time is set by the packet, not by a random
				// draw, which is what gives the credit knee its sharpness.
				DeterministicService: true,
				MaxEvents:            opts.MaxEvents,
			})
			if err != nil {
				return 0, err
			}
			return unit.Bandwidth(res.Throughput).GbpsValue(), nil
		})
	if err != nil {
		return Figure{}, err
	}
	for pi, tp := range profiles {
		s := Series{Name: tp.Name}
		for ci := 0; ci < fig15Credits; ci++ {
			s.Points = append(s.Points, Point{X: float64(ci + 1), Y: ys[pi*fig15Credits+ci]})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// panicM1Offer returns the Figure 15 offered load for a mean packet size:
// 75% of the pipelined chain's saturation capacity (the PANIC experiments
// run below line rate; the knee position is what the figure is about).
func panicM1Offer(d devices.PANIC, meanSize float64) (float64, error) {
	m, err := apps.PANICPipelined(d, meanSize, 1, 8)
	if err != nil {
		return 0, err
	}
	sat, err := m.SaturationThroughput()
	if err != nil {
		return 0, err
	}
	return 0.75 * sat.Attainable, nil
}

// Fig15SuggestedCredits runs the §4.6 scenario-#1 optimizer: the minimal
// credits whose modeled goodput stays within 3% of full provisioning, per
// traffic profile.
func Fig15SuggestedCredits() (map[string]int, error) {
	d := devices.PANICPrototype()
	out := map[string]int{}
	for _, tp := range fig15Profiles() {
		prof, err := traffic.EqualSplit(tp.Name, unit.Gbps(1), tp.Sizes...)
		if err != nil {
			return nil, err
		}
		mean := prof.Sizes.Mean().Bytes()
		offered, err := panicM1Offer(d, mean)
		if err != nil {
			return nil, err
		}
		credits, err := optimizer.SizeCredits(func(c int) (core.Model, error) {
			return apps.PANICPipelined(d, mean, offered, c)
		}, 8, 0.03)
		if err != nil {
			return nil, err
		}
		out[tp.Name] = credits
	}
	return out, nil
}

// fig16Sizes are the steering experiment's packet sizes.
var fig16Sizes = []struct {
	Name string
	Size float64
}{
	{"TP1(64B)", 64},
	{"TP2(512B)", 512},
	{"TP3(MTU)", 1500},
}

// fig16Splits are the static A2 shares (the paper's "10/70 … 70/10"
// labels: X% to A2, 80−X% to A3, A1 fixed at 20%).
var fig16Splits = []float64{0.10, 0.30, 0.50, 0.70}

// fig16Credits is the per-unit queue provisioning of the steering
// experiment: deep enough that a mis-steered unit shows up as queueing
// delay rather than as silent drops.
const fig16Credits = 64

// panicM2Offer is the Model-2 offered load for a packet size: 80% of the
// capacity at the capability-proportional steering point.
func panicM2Offer(d devices.PANIC, size float64) (float64, error) {
	m, err := apps.PANICParallelized(d, size, 1, 0.2, 0.56, 0.24, fig16Credits)
	if err != nil {
		return 0, err
	}
	sat, err := m.SaturationThroughput()
	if err != nil {
		return 0, err
	}
	return 0.8 * sat.Attainable, nil
}

// fig1617 runs the §4.6 scenario-#2 steering comparison once: per packet
// size, the four static splits plus the LogNIC-suggested one, measured by
// simulation. Figure 16 plots Model-2 latency, Figure 17 throughput.
// Stage 1 derives each size's offered load and optimizer-suggested split
// (model-only, fanned out per size); stage 2 fans every (size, split)
// replication out over the pool.
func fig1617(opts Options) (Figure, Figure, error) {
	opts = opts.withDefaults()
	ctx := context.Background()
	d := devices.PANICPrototype()
	f16 := Figure{
		ID: "fig16", Title: "PANIC steering latency: static vs LogNIC splits (Model 2)",
		XLabel: "profile", YLabel: "Latency (us)",
	}
	f17 := Figure{
		ID: "fig17", Title: "PANIC steering throughput: static vs LogNIC splits (Model 2)",
		XLabel: "profile", YLabel: "Throughput (Gbps)",
	}
	names := []string{"10/70", "30/50", "50/30", "70/10", "LogNIC"}
	for _, n := range names {
		f16.Series = append(f16.Series, Series{Name: n})
		f17.Series = append(f17.Series, Series{Name: n})
	}
	type prep struct {
		offered float64
		splits  []float64
	}
	preps, err := sweepObs(ctx, opts, "fig1617.prep", len(fig16Sizes),
		func(_ context.Context, ti int) (prep, error) {
			tp := fig16Sizes[ti]
			offered, err := panicM2Offer(d, tp.Size)
			if err != nil {
				return prep{}, err
			}
			splits := append([]float64(nil), fig16Splits...)
			suggested, err := optimizer.SteerTraffic(func(x float64) (core.Model, error) {
				return apps.PANICParallelized(d, tp.Size, offered, 0.2, x, 0.8-x, fig16Credits)
			}, 0.05, 0.75)
			if err != nil {
				return prep{}, err
			}
			return prep{offered: offered, splits: append(splits, suggested)}, nil
		})
	if err != nil {
		return Figure{}, Figure{}, err
	}
	nSplits := len(names)
	type cell struct{ latency, throughput float64 }
	cells, err := sweepObs(ctx, opts, "fig1617", len(fig16Sizes)*nSplits,
		func(ctx context.Context, ci int) (cell, error) {
			ti, si := ci/nSplits, ci%nSplits
			tp, p := fig16Sizes[ti], preps[ti]
			m, err := apps.PANICParallelized(d, tp.Size, p.offered, 0.2, p.splits[si], 0.8-p.splits[si], fig16Credits)
			if err != nil {
				return cell{}, err
			}
			res, err := runSim(ctx, opts, sim.Config{
				Graph:     m.Graph,
				Hardware:  m.Hardware,
				Profile:   traffic.Fixed(tp.Name, unit.Bandwidth(p.offered), unit.Size(tp.Size)),
				Seed:      opts.seedFor("fig1617", ti, si),
				Duration:  opts.simTime(0.06),
				MaxEvents: opts.MaxEvents,
			})
			if err != nil {
				return cell{}, err
			}
			return cell{
				latency:    res.MeanLatency * 1e6,
				throughput: unit.Bandwidth(res.Throughput).GbpsValue(),
			}, nil
		})
	if err != nil {
		return Figure{}, Figure{}, err
	}
	for ti, tp := range fig16Sizes {
		for si := 0; si < nSplits; si++ {
			c := cells[ti*nSplits+si]
			f16.Series[si].Points = append(f16.Series[si].Points,
				Point{X: float64(ti), Label: tp.Name, Y: c.latency})
			f17.Series[si].Points = append(f17.Series[si].Points,
				Point{X: float64(ti), Label: tp.Name, Y: c.throughput})
		}
	}
	return f16, f17, nil
}

// fig18Traffic are the two Model-3 traffic splits: the fraction of IP1's
// output continuing to IP3 (the rest joins IP2's traffic at IP4).
var fig18Traffic = []struct {
	Name  string
	Split float64
}{
	{"Traffic Profile 1", 0.5}, // 50%/50%
	{"Traffic Profile 2", 0.8}, // 80%/20%
}

// fig18Lanes is the IP4 parallel-degree range Figures 18/19 sweep.
const fig18Lanes = 8

// panicM3 builds the Model-3 configuration at one lane count.
func panicM3(d devices.PANIC, split float64, lanes int) (core.Model, float64, error) {
	const (
		shareIP1 = 0.7
		size     = 1024.0
	)
	u4, err := d.Unit("a4")
	if err != nil {
		return core.Model{}, 0, err
	}
	laneCap := size / u4.ServiceTime(size) // bytes/s per lane
	offered := 6.9 * laneCap
	m, err := apps.PANICHybrid(d, size, offered, shareIP1, split, lanes, 8)
	return m, offered, err
}

// fig1819 sweeps IP4's parallel degree 1..8 for both traffic profiles
// (§4.6 scenario #3): Figure 18 plots Model-3 latency, Figure 19
// throughput. Every (profile, lanes) replication is one sweep task.
func fig1819(opts Options) (Figure, Figure, error) {
	opts = opts.withDefaults()
	d := devices.PANICPrototype()
	f18 := Figure{
		ID: "fig18", Title: "PANIC latency vs IP4 parallel degree (Model 3)",
		XLabel: "lanes", YLabel: "Latency (us)",
	}
	f19 := Figure{
		ID: "fig19", Title: "PANIC throughput vs IP4 parallel degree (Model 3)",
		XLabel: "lanes", YLabel: "Throughput (Gbps)",
	}
	type cell struct{ latency, throughput float64 }
	cells, err := sweepObs(context.Background(), opts, "fig1819", len(fig18Traffic)*fig18Lanes,
		func(ctx context.Context, ti int) (cell, error) {
			tpi, li := ti/fig18Lanes, ti%fig18Lanes
			lanes := li + 1
			m, offered, err := panicM3(d, fig18Traffic[tpi].Split, lanes)
			if err != nil {
				return cell{}, err
			}
			res, err := runSim(ctx, opts, sim.Config{
				Graph:     m.Graph,
				Hardware:  m.Hardware,
				Profile:   traffic.Fixed(fig18Traffic[tpi].Name, unit.Bandwidth(offered), 1024),
				Seed:      opts.seedFor("fig1819", tpi, lanes),
				Duration:  opts.simTime(0.3),
				MaxEvents: opts.MaxEvents,
			})
			if err != nil {
				return cell{}, err
			}
			return cell{
				latency:    res.MeanLatency * 1e6,
				throughput: unit.Bandwidth(res.Throughput).GbpsValue(),
			}, nil
		})
	if err != nil {
		return Figure{}, Figure{}, err
	}
	for tpi, tp := range fig18Traffic {
		s18 := Series{Name: tp.Name}
		s19 := Series{Name: tp.Name}
		for li := 0; li < fig18Lanes; li++ {
			c := cells[tpi*fig18Lanes+li]
			x := float64(li + 1)
			s18.Points = append(s18.Points, Point{X: x, Y: c.latency})
			s19.Points = append(s19.Points, Point{X: x, Y: c.throughput})
		}
		f18.Series = append(f18.Series, s18)
		f19.Series = append(f19.Series, s19)
	}
	return f18, f19, nil
}

// Fig18SuggestedLanes runs the §4.6 scenario-#3 optimizer: the minimal IP4
// parallel degree whose modeled latency is within 12% of full parallelism,
// per traffic profile.
func Fig18SuggestedLanes() (map[string]int, error) {
	d := devices.PANICPrototype()
	out := map[string]int{}
	for _, tp := range fig18Traffic {
		lanes, err := optimizer.TuneUnitParallelism(func(l int) (core.Model, error) {
			m, _, err := panicM3(d, tp.Split, l)
			return m, err
		}, 8, 0.12)
		if err != nil {
			return nil, fmt.Errorf("lanes for %s: %w", tp.Name, err)
		}
		out[tp.Name] = lanes
	}
	return out, nil
}
