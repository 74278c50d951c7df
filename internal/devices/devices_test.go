package devices

import (
	"math"
	"testing"

	"lognic/internal/unit"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLiquidIOCatalogAnchors(t *testing.T) {
	d := LiquidIO2CN2360()
	if d.Cores != 16 {
		t.Fatalf("Cores = %d, want 16", d.Cores)
	}
	if !approx(d.LineRate.GbpsValue(), 25, 1e-9) {
		t.Fatalf("LineRate = %v Gbps", d.LineRate.GbpsValue())
	}
	// Figure 5 anchor: at 16KB granularity the interconnect ceiling gives
	// CRC/3DES/MD5/HFA = 13.6/17.3/21.2/25.8% of each engine's max.
	cases := map[string]float64{"crc": 0.136, "3des": 0.173, "md5": 0.212, "hfa": 0.258}
	for name, wantFrac := range cases {
		a, err := d.Accel(name)
		if err != nil {
			t.Fatal(err)
		}
		ceiling := d.PathBW(a).BytesPerSecond()
		atMax := ceiling / 16384 // ops/s at 16KB granularity
		frac := atMax / a.PacketRate
		if !approx(frac, wantFrac, 0.02) {
			t.Errorf("%s: 16KB fraction = %.3f, want %.3f", name, frac, wantFrac)
		}
	}
}

func TestLiquidIOFigure9Anchors(t *testing.T) {
	d := LiquidIO2CN2360()
	// Figure 9 anchor: cores needed to saturate each engine at MTU line
	// rate: MD5 9, KASUMI 8, HFA 11. Saturation = min(engine rate, line
	// pps); cores = ceil(plateau × per-core packet time).
	linePPS := d.LineRate.BytesPerSecond() / 1500
	cases := map[string]int{"md5": 9, "kasumi": 8, "hfa": 11}
	for name, wantCores := range cases {
		a, _ := d.Accel(name)
		plateau := math.Min(a.PacketRate, linePPS)
		cores := int(math.Ceil(plateau * d.CorePacketTime(a)))
		if cores != wantCores {
			t.Errorf("%s: cores to saturate = %d, want %d", name, cores, wantCores)
		}
	}
}

func TestLiquidIOAccelLookup(t *testing.T) {
	d := LiquidIO2CN2360()
	if _, err := d.Accel("nope"); err == nil {
		t.Fatal("unknown accel should fail")
	}
	for name, want := range d.Accels {
		a, err := d.Accel(name)
		if err != nil || a != want {
			t.Fatalf("Accel(%q) = %+v, %v; want %+v", name, a, err, want)
		}
	}
}

func TestLiquidIOPaths(t *testing.T) {
	d := LiquidIO2CN2360()
	crc, _ := d.Accel("crc")
	hfa, _ := d.Accel("hfa")
	if crc.Path != PathCMI || hfa.Path != PathIO {
		t.Fatal("path assignment wrong")
	}
	if d.PathBW(crc) != d.CMIBW || d.PathBW(hfa) != d.IOBW {
		t.Fatal("PathBW wrong")
	}
	// Off-chip engines pay more invocation overhead.
	if hfa.CallOverhead <= crc.CallOverhead {
		t.Fatal("off-chip overhead should exceed on-chip")
	}
}

func TestLiquidIOCoreThroughput(t *testing.T) {
	d := LiquidIO2CN2360()
	md5, _ := d.Accel("md5")
	p1 := d.CoreThroughput(md5, 1500, 1)
	p8 := d.CoreThroughput(md5, 1500, 8)
	if !approx(p8, 8*p1, 1e-12) {
		t.Fatal("core throughput should scale linearly with cores")
	}
	if d.CoreThroughput(md5, 1500, 0) != p1 {
		t.Fatal("cores < 1 should clamp to 1")
	}
}

func TestLiquidIOHardware(t *testing.T) {
	d := LiquidIO2CN2360()
	hw := d.Hardware()
	if hw.InterfaceBW != d.CMIBW.BytesPerSecond() || hw.MemoryBW != d.MemoryBW.BytesPerSecond() {
		t.Fatal("Hardware mapping wrong")
	}
}

func TestBlueField2Catalog(t *testing.T) {
	d := BlueField2DPU()
	if d.Cores != 8 || !approx(d.LineRate.GbpsValue(), 100, 1e-9) {
		t.Fatalf("catalog = %+v", d)
	}
	for _, name := range []string{"conntrack", "hash", "regex", "crypto"} {
		e, err := d.Engine(name)
		if err != nil {
			t.Fatal(err)
		}
		if e.ServiceTime(1500) <= 0 {
			t.Fatalf("%s: non-positive service time", name)
		}
		// Per-byte engines slow down with size.
		if e.PerByte > 0 && e.ServiceTime(1500) <= e.ServiceTime(64) {
			t.Fatalf("%s: size scaling wrong", name)
		}
		if e.TransferOverhead <= 0 {
			t.Fatalf("%s: transfer overhead must be positive", name)
		}
	}
	if _, err := d.Engine("dpi"); err == nil {
		t.Fatal("DPI has no engine (paper §4.5)")
	}
	if d.Hardware().InterfaceBW != d.InterfaceBW.BytesPerSecond() {
		t.Fatal("Hardware mapping wrong")
	}
}

func TestStingrayCatalog(t *testing.T) {
	d := StingrayPS1100R()
	if d.Cores != 8 {
		t.Fatalf("Cores = %d", d.Cores)
	}
	if d.SubmissionCost <= 0 || d.CompletionCost <= 0 {
		t.Fatal("IO path costs must be positive")
	}
	hw := d.Hardware()
	if hw.MemoryBW <= 0 || hw.InterfaceBW <= 0 {
		t.Fatal("hardware bandwidths must be positive")
	}
	// DDR4-2400 ≈ 19.2 GB/s.
	if !approx(hw.MemoryBW, 19.2e9, 1e-9) {
		t.Fatalf("MemoryBW = %v", hw.MemoryBW)
	}
}

func TestPANICCatalog(t *testing.T) {
	d := PANICPrototype()
	if d.DefaultCredits != 8 {
		t.Fatalf("DefaultCredits = %d, want 8 (PANIC paper default)", d.DefaultCredits)
	}
	// §4.6 scenario #2 requires A1:A2:A3 throughput ratio 4:7:3.
	a1, _ := d.Unit("a1")
	a2, _ := d.Unit("a2")
	a3, _ := d.Unit("a3")
	if !approx(a1.PacketRate/a3.PacketRate, 4.0/3.0, 1e-9) {
		t.Fatalf("A1:A3 = %v", a1.PacketRate/a3.PacketRate)
	}
	if !approx(a2.PacketRate/a3.PacketRate, 7.0/3.0, 1e-9) {
		t.Fatalf("A2:A3 = %v", a2.PacketRate/a3.PacketRate)
	}
	if _, err := d.Unit("nope"); err == nil {
		t.Fatal("unknown unit should fail")
	}
	u, _ := d.Unit("a1")
	if u.ServiceTime(1500) <= u.ServiceTime(64) {
		t.Fatal("per-byte scaling wrong")
	}
	if d.Hardware().InterfaceBW != d.SwitchBW.BytesPerSecond() {
		t.Fatal("Hardware mapping wrong")
	}
	// A unit saturates in the tens of Gbps at MTU.
	gbps := unit.Bandwidth(1500 / u.ServiceTime(1500)).GbpsValue()
	if gbps < 10 || gbps > 60 {
		t.Fatalf("a1 MTU capacity = %v Gbps, outside plausible range", gbps)
	}
}
