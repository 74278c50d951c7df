package report

import (
	"os"
	"path/filepath"
	"testing"

	"lognic/internal/experiments"
)

// The model-only figures (no simulator randomness) are bit-for-bit
// deterministic; pin their full output against checked-in goldens so any
// change to the model's arithmetic or the device catalogs is caught
// loudly. Regenerate with:
//
//	go run ./cmd/lognic-bench -format csv fig5 > internal/report/testdata/fig5.golden.csv
//	go run ./cmd/lognic-bench -format csv fig10 > internal/report/testdata/fig10.golden.csv
func TestModelOnlyFigureGoldens(t *testing.T) {
	figs, err := experiments.Regenerate(experiments.Options{}, "fig5", "fig10")
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"fig5", "fig10"} {
		got := CSV(figs[id])
		goldenPath := filepath.Join("testdata", id+".golden.csv")
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("read golden: %v", err)
		}
		if got != string(want) {
			t.Errorf("%s output drifted from %s.\nIf the change is intended, regenerate the golden.\ngot:\n%s\nwant:\n%s",
				id, goldenPath, got, want)
		}
	}
}
