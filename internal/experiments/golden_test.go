package experiments_test

// Golden-digest suite over the figure generators (ISSUE 4): every figure
// of the paper's evaluation is regenerated at a fixed small scale for base
// seeds {1, 2, 3} and its complete data table digested. The committed
// digests were recorded from the seed container/heap event engine, so a
// pass proves the specialized engine reproduces every figure's every
// point bit-for-bit — the acceptance criterion of the fast-path rewrite.
// Refresh intentionally changed goldens with:
//
//	go test ./internal/experiments -run TestGoldenFigureDigests -update

import (
	"testing"

	"lognic/internal/experiments"
	"lognic/internal/simtest"
)

// goldenScale keeps the 10 studies × 3 seeds affordable; figure content at
// this scale is statistically loose but bitwise deterministic, which is
// all a digest needs.
const goldenScale = 0.05

func TestGoldenFigureDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every figure three times")
	}
	if raceEnabled {
		t.Skip("30 study regenerations under the race detector; the raced sim-level golden suite covers the engine")
	}
	g := simtest.LoadGolden(t, "testdata/golden_digests.json")
	defer g.Save(t)
	for _, st := range experiments.Studies() {
		for _, seed := range []int64{1, 2, 3} {
			figs, err := st.Run(experiments.Options{Scale: goldenScale, Seed: seed})
			if err != nil {
				t.Fatalf("%v/seed%d: %v", st.Figures, seed, err)
			}
			if len(figs) != len(st.Figures) {
				t.Fatalf("%v/seed%d: got %d figures", st.Figures, seed, len(figs))
			}
			for i, fig := range figs {
				if fig.ID != st.Figures[i] || len(fig.Series) == 0 {
					t.Fatalf("%s/seed%d: got figure %q with %d series", st.Figures[i], seed, fig.ID, len(fig.Series))
				}
				g.Check(t, simtest.Key(fig.ID, "seed", seed), simtest.FigureDigest(fig))
			}
		}
	}
}

// TestGoldenWorkerInvariance re-digests one simulator-heavy figure at
// Workers 1 vs the default pool: the digest, not just a summary statistic,
// must match — scheduling order can never leak into figure data.
func TestGoldenWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a figure twice")
	}
	serial, err := experiments.Fig9(experiments.Options{Scale: goldenScale, Seed: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Fig9(experiments.Options{Scale: goldenScale, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if simtest.FigureDigest(serial) != simtest.FigureDigest(parallel) {
		t.Fatal("figure digest depends on worker count")
	}
}
