package experiments

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"lognic/internal/obs"
	"lognic/internal/sim"
)

// This file is the parallel sweep engine every figure generator runs on.
// A figure is a grid of independent simulator replications (points ×
// series × repetitions); sweep fans them out over a bounded worker pool
// and reassembles the results in task order, so regeneration scales with
// cores while the output stays byte-identical at any worker count —
// including Workers: 1. Determinism comes from the seed discipline, not
// from scheduling: each replication's RNG stream is fixed by its
// coordinates via Options.seedFor, so no task can observe another task's
// randomness or its completion order.

// sweep runs task(ctx, i) for i in [0, n) on at most `workers` concurrent
// goroutines and returns the results indexed by task. The first task
// failure cancels the shared context so in-flight siblings abort (the
// simulator polls it in RunContext); the error returned is the
// lowest-indexed genuine failure, with knock-on cancellations of sibling
// tasks filtered out, so the reported error is also independent of worker
// count.
func sweep[T any](ctx context.Context, workers, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	workers = min(max(workers, 1), n)
	out := make([]T, n)
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := wctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				v, err := task(wctx, i)
				if err != nil {
					errs[i] = err
					cancel()
					continue
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	var first error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) {
			return nil, err
		}
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// sweepObs is sweep with the figure's observability attached: a
// points-total/points-done progress gauge pair and a per-point wall-time
// histogram, labeled by figure id. Timing uses the host clock and so never
// touches simulator state — figure output stays byte-identical whether or
// not a registry is attached.
func sweepObs[T any](ctx context.Context, o Options, figID string, n int, task func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if o.Metrics == nil {
		return sweep(ctx, o.Workers, n, task)
	}
	labels := obs.Labels{"fig": figID}
	total := o.Metrics.Gauge("lognic_sweep_points_total", "replications this figure fans out", labels)
	done := o.Metrics.Gauge("lognic_sweep_points_done", "replications completed so far", labels)
	seconds := o.Metrics.Histogram("lognic_sweep_point_seconds", "wall time per replication", pointBuckets(), labels)
	total.Add(float64(n))
	timed := func(ctx context.Context, i int) (T, error) {
		start := time.Now()
		v, err := task(ctx, i)
		seconds.Observe(time.Since(start).Seconds())
		if err == nil {
			done.Add(1)
		}
		return v, err
	}
	return sweep(ctx, o.Workers, n, timed)
}

// pointBuckets spans 100µs..~100s geometrically — replication wall times
// from the fastest smoke-scale point to a full-duration figure cell.
func pointBuckets() []float64 { return obs.ExpBuckets(1e-4, 4, 10) }

// runSim executes one simulator replication under the sweep's context, so
// a sibling worker's failure — or an exceeded Options.MaxEvents budget —
// cancels in-flight replications instead of letting them run out the
// clock. Typed harness errors (sim.ErrBudgetExceeded, sim.ErrStalled)
// surface unchanged through the pool. The sweep Options' registry and
// tracer ride into every replication here, so all figure generators are
// observable without per-figure wiring.
func runSim(ctx context.Context, o Options, cfg sim.Config) (sim.Result, error) {
	cfg.Metrics = o.Metrics
	cfg.Spans = o.Trace
	s, err := sim.New(cfg)
	if err != nil {
		return sim.Result{}, err
	}
	return s.RunContext(ctx)
}
