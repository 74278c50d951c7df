package experiments

import (
	"context"

	"lognic/internal/apps"
	"lognic/internal/devices"
	"lognic/internal/optimizer"
	"lognic/internal/sim"
	"lognic/internal/traffic"
	"lognic/internal/unit"
)

// fig13Sizes are the packet sizes Figures 13/14 sweep.
var fig13Sizes = []float64{64, 128, 256, 512, 1024, 1500}

// nfSchemes evaluates the three §4.5 placement schemes at one packet size
// and returns (throughput bytes/s, mean latency seconds) per scheme, in
// the order ARM-only, Accelerator-only, LogNIC-opt. sizeIdx keys the RNG
// streams of the six simulator replications (two per scheme: a line-rate
// throughput run and a sub-saturation latency run).
func nfSchemes(ctx context.Context, d devices.BlueField2, chain []apps.NF, size float64, opts Options, sizeIdx int) ([3]float64, [3]float64, error) {
	var thr, lat [3]float64
	opt, err := optimizer.PlaceNFs(d, chain, size, d.LineRate.BytesPerSecond())
	if err != nil {
		return thr, lat, err
	}
	placements := []apps.Placement{
		apps.ARMOnly(chain),
		apps.AcceleratorOnly(chain),
		opt,
	}
	// Common offered load for the latency comparison: 70% of the
	// optimized placement's capacity (the paper drives identical traffic
	// into all three).
	ref, err := apps.NFChainModel(d, chain, opt, size, d.LineRate.BytesPerSecond())
	if err != nil {
		return thr, lat, err
	}
	sat, err := ref.SaturationThroughput()
	if err != nil {
		return thr, lat, err
	}
	latLoad := 0.7 * sat.Attainable

	for i, p := range placements {
		// Throughput: offer line rate, measure what survives.
		m, err := apps.NFChainModel(d, chain, p, size, d.LineRate.BytesPerSecond())
		if err != nil {
			return thr, lat, err
		}
		res, err := runSim(ctx, opts, sim.Config{
			Graph:     m.Graph,
			Hardware:  m.Hardware,
			Profile:   traffic.Fixed("line", d.LineRate, unit.Size(size)),
			Seed:      opts.seedFor("fig1314", sizeIdx, i*2),
			Duration:  opts.simTime(0.05),
			MaxEvents: opts.MaxEvents,
		})
		if err != nil {
			return thr, lat, err
		}
		thr[i] = res.Throughput

		// Latency: offer the common sub-saturation load.
		m2, err := apps.NFChainModel(d, chain, p, size, latLoad)
		if err != nil {
			return thr, lat, err
		}
		res2, err := runSim(ctx, opts, sim.Config{
			Graph:     m2.Graph,
			Hardware:  m2.Hardware,
			Profile:   traffic.Fixed("load", unit.Bandwidth(latLoad), unit.Size(size)),
			Seed:      opts.seedFor("fig1314", sizeIdx, i*2+1),
			Duration:  opts.simTime(0.05),
			MaxEvents: opts.MaxEvents,
		})
		if err != nil {
			return thr, lat, err
		}
		lat[i] = res2.MeanLatency
	}
	return thr, lat, nil
}

// fig1314 runs the case-study-#4 comparison once (§4.5): Figure 13 is NF
// chain throughput (Gbps) and Figure 14 average latency (µs) vs packet
// size for ARM-only / Accelerator-only / LogNIC-opt placement on the
// BlueField-2. The six packet sizes fan out over the sweep pool.
func fig1314(opts Options) (Figure, Figure, error) {
	opts = opts.withDefaults()
	d := devices.BlueField2DPU()
	chain := apps.MiddleboxChain()
	schemes := []string{"ARM-only", "Accelerator-only", "LogNIC-opt"}
	f13 := Figure{
		ID: "fig13", Title: "NF chain throughput vs packet size across placements",
		XLabel: "pkt(B)", YLabel: "Throughput (Gbps)",
	}
	f14 := Figure{
		ID: "fig14", Title: "NF chain average latency vs packet size across placements",
		XLabel: "pkt(B)", YLabel: "Avg latency (us)",
	}
	for i := range schemes {
		f13.Series = append(f13.Series, Series{Name: schemes[i]})
		f14.Series = append(f14.Series, Series{Name: schemes[i]})
	}
	type cell struct{ thr, lat [3]float64 }
	cells, err := sweepObs(context.Background(), opts, "fig1314", len(fig13Sizes),
		func(ctx context.Context, si int) (cell, error) {
			thr, lat, err := nfSchemes(ctx, d, chain, fig13Sizes[si], opts, si)
			if err != nil {
				return cell{}, err
			}
			return cell{thr: thr, lat: lat}, nil
		})
	if err != nil {
		return Figure{}, Figure{}, err
	}
	for si, size := range fig13Sizes {
		for i := range schemes {
			f13.Series[i].Points = append(f13.Series[i].Points,
				Point{X: size, Y: unit.Bandwidth(cells[si].thr[i]).GbpsValue()})
			f14.Series[i].Points = append(f14.Series[i].Points,
				Point{X: size, Y: cells[si].lat[i] * 1e6})
		}
	}
	return f13, f14, nil
}
