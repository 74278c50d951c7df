// Package spec defines the JSON representation of LogNIC inputs — the
// "predefined formats" of §3.1 — so models can be described in files and
// fed to the cmd/lognic and cmd/lognic-sim tools: a hardware block,
// an execution graph (vertices with Table 2's software parameters, edges
// with δ/α/β and optional characterized bandwidth) and a traffic profile.
// Bandwidths accept either plain numbers (bytes/second) or strings like
// "25Gbps"; sizes accept numbers (bytes) or strings like "4KB".
package spec

import (
	"encoding/json"
	"fmt"
	"math"
	"os"

	"lognic/internal/core"
	"lognic/internal/strictjson"
)

// File is the top-level JSON document.
type File struct {
	// Name labels the spec.
	Name string `json:"name,omitempty"`
	// Hardware is the device block (BW_INTF / BW_MEM).
	Hardware Hardware `json:"hardware"`
	// Graph is the execution graph.
	Graph GraphSpec `json:"graph"`
	// Traffic is the offered profile.
	Traffic TrafficSpec `json:"traffic"`
}

// Hardware mirrors core.Hardware.
type Hardware struct {
	InterfaceBW Bandwidth `json:"interface_bw,omitempty"`
	MemoryBW    Bandwidth `json:"memory_bw,omitempty"`
}

// GraphSpec mirrors core.Graph construction inputs.
type GraphSpec struct {
	Vertices []VertexSpec `json:"vertices"`
	Edges    []EdgeSpec   `json:"edges"`
}

// VertexSpec mirrors core.Vertex.
type VertexSpec struct {
	Name string `json:"name"`
	// Kind is "ip" (default), "ingress", "egress" or "ratelimiter".
	Kind          string    `json:"kind,omitempty"`
	Throughput    Bandwidth `json:"throughput,omitempty"`
	Parallelism   int       `json:"parallelism,omitempty"`
	QueueCapacity int       `json:"queue_capacity,omitempty"`
	// Overhead is O_i in seconds.
	Overhead     float64 `json:"overhead,omitempty"`
	Acceleration float64 `json:"acceleration,omitempty"`
	Partition    float64 `json:"partition,omitempty"`
	// QueueModel is "mm1n" (default) or "mmck".
	QueueModel string `json:"queue_model,omitempty"`
}

// EdgeSpec mirrors core.Edge.
type EdgeSpec struct {
	From      string    `json:"from"`
	To        string    `json:"to"`
	Delta     float64   `json:"delta"`
	Alpha     float64   `json:"alpha,omitempty"`
	Beta      float64   `json:"beta,omitempty"`
	Bandwidth Bandwidth `json:"bandwidth,omitempty"`
}

// TrafficSpec mirrors core.Traffic; the optional Mix expresses
// Extension #2 profiles (per-size components evaluated with the same
// graph and combined by weight).
type TrafficSpec struct {
	IngressBW   Bandwidth `json:"ingress_bw"`
	Granularity Size      `json:"granularity"`
	// Mix optionally splits the traffic across packet sizes. When set,
	// IngressBW is the total offer, Granularity may be omitted, and each
	// component receives its byte share of the rate.
	Mix []MixComponentSpec `json:"mix,omitempty"`
}

// MixComponentSpec is one slice of a mixed profile.
type MixComponentSpec struct {
	// Weight is the dist_size per-packet probability weight (normalized
	// across the mix).
	Weight float64 `json:"weight"`
	// Granularity is the component's packet size.
	Granularity Size `json:"granularity"`
}

// Bandwidth unmarshals from either a JSON number (bytes/second) or a
// string such as "25Gbps" or "400MB/s", and marshals as a plain number
// of bytes/second.
type Bandwidth float64

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bandwidth) UnmarshalJSON(data []byte) error {
	v, err := unitValue(data, "bandwidth", parseBandwidth)
	if err != nil {
		return err
	}
	*b = Bandwidth(v)
	return nil
}

// Size unmarshals from either a JSON number (bytes) or a string such as
// "4KB", and marshals as a plain number of bytes.
type Size float64

// UnmarshalJSON implements json.Unmarshaler.
func (s *Size) UnmarshalJSON(data []byte) error {
	v, err := unitValue(data, "size", parseSize)
	if err != nil {
		return err
	}
	*s = Size(v)
	return nil
}

// parseKind maps the JSON kind string.
func parseKind(s string) (core.VertexKind, error) {
	switch s {
	case "", "ip":
		return core.KindIP, nil
	case "ingress":
		return core.KindIngress, nil
	case "egress":
		return core.KindEgress, nil
	case "ratelimiter":
		return core.KindRateLimiter, nil
	default:
		return 0, fmt.Errorf("spec: unknown vertex kind %q", s)
	}
}

// parseQueueModel maps the JSON queue-model string.
func parseQueueModel(s string) (core.QueueModel, error) {
	switch s {
	case "", "mm1n":
		return core.QueueMM1N, nil
	case "mmck":
		return core.QueueMMcK, nil
	default:
		return 0, fmt.Errorf("spec: unknown queue model %q", s)
	}
}

// Model converts the spec into a validated core.Model.
func (f File) Model() (core.Model, error) {
	vertices := make([]core.Vertex, 0, len(f.Graph.Vertices))
	for _, vs := range f.Graph.Vertices {
		kind, err := parseKind(vs.Kind)
		if err != nil {
			return core.Model{}, err
		}
		qm, err := parseQueueModel(vs.QueueModel)
		if err != nil {
			return core.Model{}, err
		}
		vertices = append(vertices, core.Vertex{
			Name:          vs.Name,
			Kind:          kind,
			Throughput:    float64(vs.Throughput),
			Parallelism:   vs.Parallelism,
			QueueCapacity: vs.QueueCapacity,
			Overhead:      vs.Overhead,
			Acceleration:  vs.Acceleration,
			Partition:     vs.Partition,
			QueueModel:    qm,
		})
	}
	edges := make([]core.Edge, 0, len(f.Graph.Edges))
	for _, es := range f.Graph.Edges {
		edges = append(edges, core.Edge{
			From:      es.From,
			To:        es.To,
			Delta:     es.Delta,
			Alpha:     es.Alpha,
			Beta:      es.Beta,
			Bandwidth: float64(es.Bandwidth),
		})
	}
	g, err := core.NewGraph(f.Name, vertices, edges)
	if err != nil {
		return core.Model{}, err
	}
	for _, c := range f.Traffic.Mix {
		// A unit string such as "inf" decodes to a non-finite size; no
		// mix built from one has a meaning (or a canonical form).
		if math.IsInf(float64(c.Granularity), 0) || math.IsNaN(float64(c.Granularity)) {
			return core.Model{}, fmt.Errorf("spec: mix granularity %v is not finite", float64(c.Granularity))
		}
	}
	gran := float64(f.Traffic.Granularity)
	if gran == 0 && len(f.Traffic.Mix) > 0 {
		// A pure-mix spec: validate the base model at the mean size.
		var wsum, msum float64
		for _, c := range f.Traffic.Mix {
			wsum += c.Weight
			msum += c.Weight * float64(c.Granularity)
		}
		if wsum > 0 {
			gran = msum / wsum
		}
	}
	m := core.Model{
		Hardware: core.Hardware{
			InterfaceBW: float64(f.Hardware.InterfaceBW),
			MemoryBW:    float64(f.Hardware.MemoryBW),
		},
		Graph: g,
		Traffic: core.Traffic{
			IngressBW:   float64(f.Traffic.IngressBW),
			Granularity: gran,
		},
	}
	if err := m.Validate(); err != nil {
		return core.Model{}, err
	}
	return m, nil
}

// MixComponents expands the spec's traffic mix into Extension #2
// components sharing the spec's graph: each slice gets its packet size and
// its byte share of the total ingress rate. Returns an error when the spec
// declares no mix.
func (f File) MixComponents() ([]core.MixComponent, error) {
	if len(f.Traffic.Mix) == 0 {
		return nil, fmt.Errorf("spec: %q declares no traffic mix", f.Name)
	}
	base, err := f.Model()
	if err != nil {
		return nil, err
	}
	var wsum, bytesum float64
	for _, c := range f.Traffic.Mix {
		if c.Weight <= 0 {
			return nil, fmt.Errorf("spec: mix weight %v must be positive", c.Weight)
		}
		if c.Granularity <= 0 {
			return nil, fmt.Errorf("spec: mix granularity %v must be positive", float64(c.Granularity))
		}
		wsum += c.Weight
		bytesum += c.Weight * float64(c.Granularity)
	}
	out := make([]core.MixComponent, 0, len(f.Traffic.Mix))
	for _, c := range f.Traffic.Mix {
		m := base
		m.Traffic.Granularity = float64(c.Granularity)
		// Byte share: weight·size / Σ(weight·size) of the total rate.
		m.Traffic.IngressBW = base.Traffic.IngressBW * (c.Weight * float64(c.Granularity) / bytesum)
		out = append(out, core.MixComponent{Weight: c.Weight / wsum, Model: m})
	}
	return out, nil
}

// Parse decodes a JSON document, rejecting unknown fields so typos in
// parameter names fail loudly.
func Parse(data []byte) (File, error) {
	var f File
	if err := strictjson.Decode(data, f.ReadJSON); err != nil {
		return File{}, fmt.Errorf("spec: %w", err)
	}
	return f, nil
}

// Load reads and decodes a JSON file.
func Load(path string) (File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return File{}, err
	}
	return Parse(data)
}

// FromModel converts a core.Model back into its spec form (for round
// tripping and for emitting example specs).
func FromModel(m core.Model) File {
	f := File{
		Name: m.Graph.Name(),
		Hardware: Hardware{
			InterfaceBW: Bandwidth(m.Hardware.InterfaceBW),
			MemoryBW:    Bandwidth(m.Hardware.MemoryBW),
		},
		Traffic: TrafficSpec{
			IngressBW:   Bandwidth(m.Traffic.IngressBW),
			Granularity: Size(m.Traffic.Granularity),
		},
	}
	for _, v := range m.Graph.Vertices() {
		f.Graph.Vertices = append(f.Graph.Vertices, VertexSpec{
			Name:          v.Name,
			Kind:          v.Kind.String(),
			Throughput:    Bandwidth(v.Throughput),
			Parallelism:   v.Parallelism,
			QueueCapacity: v.QueueCapacity,
			Overhead:      v.Overhead,
			Acceleration:  v.Acceleration,
			Partition:     v.Partition,
			QueueModel:    v.QueueModel.String(),
		})
	}
	for _, e := range m.Graph.Edges() {
		f.Graph.Edges = append(f.Graph.Edges, EdgeSpec{
			From:      e.From,
			To:        e.To,
			Delta:     e.Delta,
			Alpha:     e.Alpha,
			Beta:      e.Beta,
			Bandwidth: Bandwidth(e.Bandwidth),
		})
	}
	return f
}

// Encode renders the spec as indented JSON.
func (f File) Encode() ([]byte, error) {
	return json.MarshalIndent(f, "", "  ")
}
