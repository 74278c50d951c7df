package experiments

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"lognic/internal/sim"
)

// TestSweepWorkerCountInvariance is the sweep engine's core guarantee:
// a simulator-backed figure regenerated at Workers: 1 and Workers: 8 must
// produce byte-identical Figure.Format() output, because every
// replication's RNG stream is fixed by its (figure, point, replication)
// coordinates and cannot observe scheduling order. CI runs this under
// -race, which also shakes out data races in the pool itself.
func TestSweepWorkerCountInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-backed figure")
	}
	base := Options{Scale: 0.05, Seed: 11}
	for _, id := range []string{"fig9", "fig15"} {
		serial := base
		serial.Workers = 1
		f1, err := Regenerate(serial, id)
		if err != nil {
			t.Fatal(err)
		}
		parallel := base
		parallel.Workers = 8
		f8, err := Regenerate(parallel, id)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f8[id].Format(), f1[id].Format(); got != want {
			t.Errorf("%s: output differs between Workers=1 and Workers=8:\n--- 1 worker ---\n%s\n--- 8 workers ---\n%s", id, want, got)
		}
	}
}

func TestSweepOrderAndBounds(t *testing.T) {
	// Zero workers still runs every task, on one goroutine.
	for _, workers := range []int{0, 1, 3} {
		var active, peak atomic.Int64
		out, err := sweep(context.Background(), workers, 20, func(_ context.Context, i int) (int, error) {
			cur := active.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			defer active.Add(-1)
			return i * i, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 20 {
			t.Fatalf("workers=%d: %d results for 20 tasks", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d: results not reassembled in task order", workers, i, v)
			}
		}
		if bound := int64(max(workers, 1)); peak.Load() > bound {
			t.Fatalf("workers=%d: peak concurrency %d exceeds worker bound %d", workers, peak.Load(), bound)
		}
	}
}

func TestSweepErrorWinsOverCancellation(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{0, 1, 4} {
		_, err := sweep(context.Background(), workers, 16, func(ctx context.Context, i int) (int, error) {
			if i == 5 {
				return 0, fmt.Errorf("task failed: %w", boom)
			}
			// Tasks after the failure observe the cancelled context, like
			// an in-flight simulator replication would via RunContext.
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want the genuine task failure", workers, err)
		}
	}
}

func TestSweepParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{0, 1, 4} {
		_, err := sweep(ctx, workers, 4, func(context.Context, int) (int, error) {
			return 0, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestBudgetExceededPropagates drives a figure whose replications blow a
// tiny event budget: the typed sim.ErrBudgetExceeded must surface through
// the worker pool as the figure's error, regardless of worker count.
func TestBudgetExceededPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Fig9(Options{Scale: 0.05, Seed: 1, Workers: workers, MaxEvents: 50})
		if !errors.Is(err, sim.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want sim.ErrBudgetExceeded", workers, err)
		}
	}
}

// TestSeedZeroIsARealSeed pins the Options seed semantics: a bare zero
// Options still means the documented default seed 1, while SeedSet makes
// zero a distinct, honored seed.
func TestSeedZeroIsARealSeed(t *testing.T) {
	bare := Options{}.withDefaults()
	if bare.Seed != 1 {
		t.Fatalf("bare zero Options seed = %d, want default 1", bare.Seed)
	}
	explicit := Options{SeedSet: true}.withDefaults()
	if explicit.Seed != 0 {
		t.Fatalf("explicit zero seed remapped to %d", explicit.Seed)
	}
	if explicit.seedFor("fig9", 0, 0) == bare.seedFor("fig9", 0, 0) {
		t.Fatal("seed 0 and seed 1 derive identical replication streams")
	}
	// Replication streams must differ across every coordinate.
	o := Options{Seed: 3}.withDefaults()
	ref := o.seedFor("fig9", 1, 1)
	if o.seedFor("fig15", 1, 1) == ref || o.seedFor("fig9", 2, 1) == ref || o.seedFor("fig9", 1, 2) == ref {
		t.Fatal("replication stream collision across coordinates")
	}
}
