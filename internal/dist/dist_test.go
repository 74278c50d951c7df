package dist

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"lognic/internal/unit"
)

func TestFixed(t *testing.T) {
	d, err := Fixed(1500)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumPoints() != 1 {
		t.Fatalf("NumPoints = %d, want 1", d.NumPoints())
	}
	if d.Mean() != 1500 {
		t.Fatalf("Mean = %v, want 1500", float64(d.Mean()))
	}
	if d.Min() != 1500 || d.Max() != 1500 {
		t.Fatal("Min/Max should equal the fixed size")
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if got := d.Sample(rng); got != 1500 {
			t.Fatalf("Sample = %v, want 1500", float64(got))
		}
	}
}

func TestNewSizeDistNormalizesAndMerges(t *testing.T) {
	d, err := NewSizeDist([]SizePoint{
		{Size: 64, Weight: 2},
		{Size: 512, Weight: 1},
		{Size: 64, Weight: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := d.Points()
	if len(pts) != 2 {
		t.Fatalf("points = %d, want 2 (merged duplicates)", len(pts))
	}
	if pts[0].Size != 64 || math.Abs(pts[0].Weight-0.75) > 1e-12 {
		t.Fatalf("pts[0] = %+v, want 64B @0.75", pts[0])
	}
	if pts[1].Size != 512 || math.Abs(pts[1].Weight-0.25) > 1e-12 {
		t.Fatalf("pts[1] = %+v, want 512B @0.25", pts[1])
	}
}

func TestNewSizeDistErrors(t *testing.T) {
	cases := [][]SizePoint{
		nil,
		{},
		{{Size: 0, Weight: 1}},
		{{Size: -5, Weight: 1}},
		{{Size: 64, Weight: -1}},
		{{Size: 64, Weight: 0}},
		{{Size: 64, Weight: math.NaN()}},
		{{Size: 64, Weight: math.Inf(1)}},
	}
	for i, pts := range cases {
		if _, err := NewSizeDist(pts); err == nil {
			t.Errorf("case %d: expected error for %+v", i, pts)
		}
	}
}

func TestSampleFrequencies(t *testing.T) {
	d, err := NewSizeDist([]SizePoint{
		{Size: 64, Weight: 0.2},
		{Size: 512, Weight: 0.3},
		{Size: 1500, Weight: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const n = 200000
	counts := map[unit.Size]int{}
	for i := 0; i < n; i++ {
		counts[d.Sample(rng)]++
	}
	for _, p := range d.Points() {
		got := float64(counts[p.Size]) / n
		if math.Abs(got-p.Weight) > 0.01 {
			t.Errorf("size %v frequency %v, want ~%v", float64(p.Size), got, p.Weight)
		}
	}
}

func TestByteWeightsSumToOne(t *testing.T) {
	d, err := NewSizeDist([]SizePoint{{Size: 64, Weight: 1}, {Size: 512, Weight: 1}, {Size: 1500, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	bw := d.ByteWeights()
	sum := 0.0
	for _, p := range bw {
		sum += p.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("byte weights sum = %v, want 1", sum)
	}
	// Bigger packets must carry a larger byte share.
	if !(bw[2].Weight > bw[1].Weight && bw[1].Weight > bw[0].Weight) {
		t.Fatalf("byte weights not increasing with size: %+v", bw)
	}
}

func TestByteWeightsProperty(t *testing.T) {
	f := func(a, b, c uint16) bool {
		sizes := []SizePoint{
			{Size: unit.Size(a%1400) + 64, Weight: 1},
			{Size: unit.Size(b%1400) + 64, Weight: 2},
			{Size: unit.Size(c%1400) + 64, Weight: 3},
		}
		d, err := NewSizeDist(sizes)
		if err != nil {
			return false
		}
		sum := 0.0
		for _, p := range d.ByteWeights() {
			if p.Weight < 0 {
				return false
			}
			sum += p.Weight
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeanWithinSupportProperty(t *testing.T) {
	f := func(a, b uint16, wRaw uint8) bool {
		w := float64(wRaw%100) + 1
		d, err := NewSizeDist([]SizePoint{
			{Size: unit.Size(a%1436) + 64, Weight: w},
			{Size: unit.Size(b%1436) + 64, Weight: 101 - w},
		})
		if err != nil {
			return false
		}
		m := d.Mean()
		return m >= d.Min() && m <= d.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonInterArrival(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 100000
	rate := 1000.0
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += PoissonInterArrival(rng, rate)
	}
	got := sum / n
	if math.Abs(got-1/rate) > 0.05/rate {
		t.Fatalf("mean inter-arrival = %v, want ~%v", got, 1/rate)
	}
	if !math.IsInf(PoissonInterArrival(rng, 0), 1) {
		t.Fatal("zero rate should yield +Inf gap")
	}
}

func TestStringFormat(t *testing.T) {
	d, err := NewSizeDist([]SizePoint{{Size: 64, Weight: 1}, {Size: 512, Weight: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.String(); got != "64B:50%,512B:50%" {
		t.Fatalf("String = %q", got)
	}
}

func TestSampleEmptyDist(t *testing.T) {
	var d SizeDist
	rng := rand.New(rand.NewSource(1))
	if got := d.Sample(rng); got != 0 {
		t.Fatalf("zero-value dist Sample = %v, want 0", float64(got))
	}
	if d.Min() != 0 || d.Max() != 0 {
		t.Fatal("zero-value dist Min/Max should be 0")
	}
}
