package experiments

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"lognic/internal/obs"
)

// TestFigureUnchangedByObservability is the load-bearing guarantee behind
// wiring a registry and tracer through every figure generator: attaching
// them must not perturb a single sampled value. Timing metrics read the
// host clock, never simulator state, so the figure payload stays
// byte-identical.
func TestFigureUnchangedByObservability(t *testing.T) {
	opts := Options{Scale: 0.05, Seed: 3}
	bare, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	obsOpts := opts
	obsOpts.Metrics = obs.NewRegistry()
	obsOpts.Trace = obs.NewTracer(0)
	traced, err := Fig9(obsOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, traced) {
		t.Fatal("figure output changed when observability was attached")
	}
	if obsOpts.Trace.Len() == 0 {
		t.Fatal("tracer collected no spans from the figure's replications")
	}
}

// gaugeValue reads one labeled series out of a registry snapshot.
func gaugeValue(t *testing.T, reg *obs.Registry, name, fig string) float64 {
	t.Helper()
	for _, s := range reg.Gather() {
		if s.Name == name && s.Labels["fig"] == fig {
			return s.Value
		}
	}
	t.Fatalf("series %s{fig=%q} missing", name, fig)
	return 0
}

func TestSweepObsProgressGauges(t *testing.T) {
	reg := obs.NewRegistry()
	o := Options{Workers: 2, Metrics: reg}
	got, err := sweepObs(context.Background(), o, "figX", 6,
		func(ctx context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result[%d] = %d", i, v)
		}
	}
	if total := gaugeValue(t, reg, "lognic_sweep_points_total", "figX"); total != 6 {
		t.Fatalf("points_total = %v, want 6", total)
	}
	if done := gaugeValue(t, reg, "lognic_sweep_points_done", "figX"); done != 6 {
		t.Fatalf("points_done = %v, want 6", done)
	}
	// Wall-time histogram saw every replication.
	var count uint64
	for _, s := range reg.Gather() {
		if s.Name == "lognic_sweep_point_seconds" && s.Labels["fig"] == "figX" {
			count = s.Count
		}
	}
	if count != 6 {
		t.Fatalf("point_seconds count = %d, want 6", count)
	}
}

func TestSweepObsFailureNotCountedDone(t *testing.T) {
	reg := obs.NewRegistry()
	o := Options{Workers: 1, Metrics: reg}
	boom := errors.New("boom")
	_, err := sweepObs(context.Background(), o, "figY", 4,
		func(ctx context.Context, i int) (int, error) {
			if i == 2 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if done := gaugeValue(t, reg, "lognic_sweep_points_done", "figY"); done != 2 {
		t.Fatalf("points_done = %v, want 2 (tasks before the failure)", done)
	}
}

func TestSweepObsNilRegistryIsPlainSweep(t *testing.T) {
	got, err := sweepObs(context.Background(), Options{Workers: 3}, "figZ", 5,
		func(ctx context.Context, i int) (int, error) { return i + 1, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4] != 5 {
		t.Fatalf("results = %v", got)
	}
}
