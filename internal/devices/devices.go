// Package devices holds the hardware-model catalogs for the four platforms
// of the paper's evaluation (§4.1): the Marvell LiquidIO-II CN2360, the
// NVIDIA BlueField-2 DPU, the Broadcom Stingray PS1100R, and the PANIC
// academic prototype. A catalog entry supplies the fixed LogNIC hardware
// parameters (interface/memory bandwidths, per-IP compute rates, transfer
// overheads) that the paper obtains from datasheets ("SPEC") and offline
// microbenchmark characterization ("CHAR").
//
// Parameter provenance: we do not have the physical cards, so CHAR-sourced
// values are synthetic, chosen so that the published anchor points
// reproduce: the LiquidIO accelerator maxima are fixed by the paper's own
// Figure 5 ratios (at 16KB granularity CRC/3DES/MD5/HFA reach
// 13.6/17.3/21.2/25.8% of their maxima against the 50 Gbps CMI and 40 Gbps
// I/O interconnect ceilings), and NIC-core costs are fixed by Figure 9's
// saturation parallelism (MD5/KASUMI/HFA max out at 9/8/11 cores at 25 GbE
// line rate). DESIGN.md discusses the substitution in full.
package devices

import (
	"fmt"

	"lognic/internal/core"
	"lognic/internal/unit"
)

// AccelPath tells which interconnect an accelerator's data fetches
// traverse on the LiquidIO-II (Figure 8).
type AccelPath int

// Accelerator data paths.
const (
	// PathCMI is the coherent memory interconnect used by the on-chip
	// crypto units.
	PathCMI AccelPath = iota
	// PathIO is the I/O interconnect used by the off-chip engines (ZIP,
	// HFA).
	PathIO
)

// Accelerator describes one domain-specific engine.
type Accelerator struct {
	// Name identifies the engine ("md5", "hfa", ...).
	Name string
	// PacketRate is the engine's peak invocation rate in packets
	// (requests) per second, aggregated across its internal lanes.
	PacketRate float64
	// CallOverhead is O_IP1 for this engine: the NIC-core seconds spent
	// preparing an invocation (parameter passing, submission/completion
	// signals). Off-chip engines pay more.
	CallOverhead float64
	// Path selects the interconnect its data fetches traverse.
	Path AccelPath
}

// LiquidIO2 is the catalog for the Marvell LiquidIO-II CN2360 (25 GbE,
// 16×1.5 GHz cnMIPS, 4 GB DRAM; Figure 8).
type LiquidIO2 struct {
	// LineRate is the 25 GbE wire rate.
	LineRate unit.Bandwidth
	// Cores is the cnMIPS core count.
	Cores int
	// CoreBase is the per-packet NIC-core cost of the base UDP echo +
	// L3/L4 processing, excluding accelerator invocation (seconds).
	CoreBase float64
	// CMIBW is the coherent-memory-interconnect bandwidth feeding the
	// on-chip crypto engines.
	CMIBW unit.Bandwidth
	// IOBW is the I/O-interconnect bandwidth feeding the off-chip
	// engines.
	IOBW unit.Bandwidth
	// MemoryBW is the DRAM bandwidth (model BW_MEM).
	MemoryBW unit.Bandwidth
	// Accels maps engine name to its description.
	Accels map[string]Accelerator
}

// LiquidIO2CN2360 returns the CN2360 catalog.
func LiquidIO2CN2360() LiquidIO2 {
	mk := func(name string, rate, overhead float64, path AccelPath) Accelerator {
		return Accelerator{Name: name, PacketRate: rate, CallOverhead: overhead, Path: path}
	}
	return LiquidIO2{
		LineRate: unit.Gbps(25),
		Cores:    16,
		CoreBase: 3.0e-6,
		CMIBW:    unit.Gbps(50),
		IOBW:     unit.Gbps(40),
		MemoryBW: unit.Gbps(160), // 4GB DDR3 aggregate
		Accels: map[string]Accelerator{
			// On-chip crypto units (CMI path). Rates anchored to the
			// Figure 5 ratios; overheads anchored to Figure 9 saturation
			// parallelism (see package comment).
			"crc":    mk("crc", 2.80e6, 0.4e-6, PathCMI),
			"3des":   mk("3des", 2.20e6, 0.9e-6, PathCMI),
			"aes":    mk("aes", 2.40e6, 0.8e-6, PathCMI),
			"md5":    mk("md5", 1.80e6, 1.7e-6, PathCMI),
			"sha1":   mk("sha1", 1.50e6, 1.4e-6, PathCMI),
			"sms4":   mk("sms4", 1.20e6, 1.1e-6, PathCMI),
			"kasumi": mk("kasumi", 2.00e6, 0.8e-6, PathCMI),
			// Off-chip engines (I/O interconnect path): costlier setup.
			"hfa": mk("hfa", 1.18e6, 5.9e-6, PathIO),
			"zip": mk("zip", 0.80e6, 6.5e-6, PathIO),
		},
	}
}

// Accel returns the named engine.
func (d LiquidIO2) Accel(name string) (Accelerator, error) {
	a, ok := d.Accels[name]
	if !ok {
		return Accelerator{}, fmt.Errorf("devices: liquidio has no accelerator %q", name)
	}
	return a, nil
}

// PathBW returns the bandwidth of an accelerator's data path.
func (d LiquidIO2) PathBW(a Accelerator) unit.Bandwidth {
	if a.Path == PathIO {
		return d.IOBW
	}
	return d.CMIBW
}

// CorePacketTime is the per-packet NIC-core service time when driving the
// given engine: base processing plus the engine's invocation overhead
// (submission and completion are handled by the same core, §4.2).
func (d LiquidIO2) CorePacketTime(a Accelerator) float64 {
	return d.CoreBase + a.CallOverhead
}

// CoreThroughput is P_IP1 for a given packet size and core parallelism:
// bytes/second the core group can push toward the engine.
func (d LiquidIO2) CoreThroughput(a Accelerator, packetBytes float64, cores int) float64 {
	if cores < 1 {
		cores = 1
	}
	return float64(cores) * packetBytes / d.CorePacketTime(a)
}

// Hardware returns the LogNIC hardware parameters for this device: the SoC
// interconnect as BW_INTF and DRAM as BW_MEM.
func (d LiquidIO2) Hardware() core.Hardware {
	return core.Hardware{
		InterfaceBW: d.CMIBW.BytesPerSecond(),
		MemoryBW:    d.MemoryBW.BytesPerSecond(),
	}
}

// NFEngine describes one BlueField-2 hardware offload engine usable by a
// network function.
type NFEngine struct {
	// Name identifies the engine ("crypto", "regex", "hash", "conntrack").
	Name string
	// PacketBase is the fixed per-packet engine time (seconds).
	PacketBase float64
	// PerByte is the additional engine time per payload byte (seconds).
	PerByte float64
	// TransferOverhead is the ARM-side cost of handing a packet to the
	// engine and collecting the result (seconds) — the O_i that makes
	// off-loading small packets a bad deal (§4.5).
	TransferOverhead float64
}

// ServiceTime is the engine time for one packet of the given size.
func (e NFEngine) ServiceTime(packetBytes float64) float64 {
	return e.PacketBase + e.PerByte*packetBytes
}

// BlueField2 is the catalog for the NVIDIA BlueField-2 DPU (100 GbE,
// 8×2.5 GHz ARM A72, 16 GB DRAM).
type BlueField2 struct {
	// LineRate is the 100 GbE wire rate.
	LineRate unit.Bandwidth
	// Cores is the ARM core count.
	Cores int
	// InterfaceBW is the SoC interconnect bandwidth between ARM cores and
	// the hardware engines.
	InterfaceBW unit.Bandwidth
	// MemoryBW is the DRAM bandwidth.
	MemoryBW unit.Bandwidth
	// Engines maps engine name to its description.
	Engines map[string]NFEngine
}

// BlueField2DPU returns the BlueField-2 catalog. Engine timings are
// synthetic CHAR values: hardware engines beat ARM software by 3–10× on
// their target computation but charge a fixed transfer overhead, creating
// the packet-size-dependent placement trade-off of Figures 13–14.
func BlueField2DPU() BlueField2 {
	return BlueField2{
		LineRate:    unit.Gbps(100),
		Cores:       8,
		InterfaceBW: unit.Gbps(200),
		MemoryBW:    unit.Gbps(200),
		Engines: map[string]NFEngine{
			"conntrack": {Name: "conntrack", PacketBase: 0.10e-6, PerByte: 0, TransferOverhead: 0.5e-6},
			"hash":      {Name: "hash", PacketBase: 0.08e-6, PerByte: 0.06e-9, TransferOverhead: 0.5e-6},
			"regex":     {Name: "regex", PacketBase: 0.20e-6, PerByte: 0.35e-9, TransferOverhead: 0.8e-6},
			"crypto":    {Name: "crypto", PacketBase: 0.15e-6, PerByte: 0.25e-9, TransferOverhead: 0.6e-6},
		},
	}
}

// Hardware returns the LogNIC hardware parameters for the BlueField-2.
func (d BlueField2) Hardware() core.Hardware {
	return core.Hardware{
		InterfaceBW: d.InterfaceBW.BytesPerSecond(),
		MemoryBW:    d.MemoryBW.BytesPerSecond(),
	}
}

// Engine returns the named engine.
func (d BlueField2) Engine(name string) (NFEngine, error) {
	e, ok := d.Engines[name]
	if !ok {
		return NFEngine{}, fmt.Errorf("devices: bluefield2 has no engine %q", name)
	}
	return e, nil
}

// Stingray is the catalog for the Broadcom Stingray PS1100R (100 GbE
// NetXtreme, 8×3.0 GHz ARM A72, 8 GB DDR4-2400).
type Stingray struct {
	// LineRate is the 100 GbE wire rate.
	LineRate unit.Bandwidth
	// Cores is the ARM core count.
	Cores int
	// SubmissionCost is the per-IO NIC-core cost of RDMA receive + NVMe
	// command fabrication + doorbell (seconds) — the IP1 of Figure 2(c).
	SubmissionCost float64
	// CompletionCost is the per-IO NIC-core cost of completion handling +
	// NVMe-oF response construction (seconds) — the IP3 of Figure 2(c).
	CompletionCost float64
	// InterfaceBW is the SoC interconnect bandwidth (model BW_INTF).
	InterfaceBW unit.Bandwidth
	// MemoryBW is the DDR4-2400 bandwidth (model BW_MEM).
	MemoryBW unit.Bandwidth
}

// StingrayPS1100R returns the PS1100R catalog.
func StingrayPS1100R() Stingray {
	return Stingray{
		LineRate:       unit.Gbps(100),
		Cores:          8,
		SubmissionCost: 2.4e-6,
		CompletionCost: 1.8e-6,
		InterfaceBW:    unit.Gbps(256),
		MemoryBW:       unit.Bandwidth(19.2e9), // DDR4-2400 single channel
	}
}

// Hardware returns the LogNIC hardware parameters for the Stingray.
func (d Stingray) Hardware() core.Hardware {
	return core.Hardware{
		InterfaceBW: d.InterfaceBW.BytesPerSecond(),
		MemoryBW:    d.MemoryBW.BytesPerSecond(),
	}
}

// PANICUnit is one compute unit of the PANIC prototype.
type PANICUnit struct {
	// Name identifies the unit.
	Name string
	// PacketRate is the unit's peak packet rate at one engine
	// (packets/second).
	PacketRate float64
	// PerByte is additional service time per payload byte (seconds).
	PerByte float64
}

// ServiceTime is the per-packet service time of one engine lane.
func (u PANICUnit) ServiceTime(packetBytes float64) float64 {
	return 1/u.PacketRate + u.PerByte*packetBytes
}

// PANIC is the catalog for the PANIC multi-tenant programmable NIC
// prototype (§4.6): an RMT pipeline, a switching fabric, a central
// credit-based scheduler, and a pool of compute units.
type PANIC struct {
	// LineRate is the prototype's 100 GbE port rate.
	LineRate unit.Bandwidth
	// RMTRate is the RMT parser/offload-descriptor pipeline rate
	// (packets/second); effectively never the bottleneck.
	RMTRate float64
	// SwitchBW is the crossbar switching-fabric bandwidth (model
	// BW_INTF).
	SwitchBW unit.Bandwidth
	// SchedulerRate is the central scheduler's decision rate
	// (packets/second).
	SchedulerRate float64
	// DefaultCredits is the per-unit credit (queue) provisioning the
	// PANIC paper suggests.
	DefaultCredits int
	// Units maps compute-unit name to its description.
	Units map[string]PANICUnit
}

// PANICPrototype returns the PANIC catalog. Unit rates are synthetic CHAR
// values sized so a single unit saturates around 20–40 Gbps at MTU,
// matching the scale of Figures 15–19.
func PANICPrototype() PANIC {
	return PANIC{
		LineRate:       unit.Gbps(100),
		RMTRate:        150e6,
		SwitchBW:       unit.Gbps(400),
		SchedulerRate:  120e6,
		DefaultCredits: 8,
		Units: map[string]PANICUnit{
			"a1": {Name: "a1", PacketRate: 4.0e6, PerByte: 0.18e-9},
			"a2": {Name: "a2", PacketRate: 7.0e6, PerByte: 0.10e-9},
			"a3": {Name: "a3", PacketRate: 3.0e6, PerByte: 0.24e-9},
			// a4 is the slow stateful unit the Model-3 parallelism sweep
			// (Figures 18/19) scales out; one lane is deliberately far
			// below line rate.
			"a4": {Name: "a4", PacketRate: 0.4e6, PerByte: 0.05e-9},
		},
	}
}

// Hardware returns the LogNIC hardware parameters for PANIC.
func (d PANIC) Hardware() core.Hardware {
	return core.Hardware{InterfaceBW: d.SwitchBW.BytesPerSecond()}
}

// Unit returns the named compute unit.
func (d PANIC) Unit(name string) (PANICUnit, error) {
	u, ok := d.Units[name]
	if !ok {
		return PANICUnit{}, fmt.Errorf("devices: panic has no unit %q", name)
	}
	return u, nil
}
