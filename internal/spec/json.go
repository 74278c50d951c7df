package spec

// The spec's JSON codec for the request path: File reads itself from a
// strictjson.Decoder and writes its canonical form to a strictjson.Writer,
// field by field, with no reflection. Both match encoding/json on these
// types exactly (FuzzServeRequest in internal/serve checks it), so Parse
// and Canonical keep their behaviour.

import (
	"fmt"
	"strconv"

	"lognic/internal/strictjson"
	"lognic/internal/unit"
)

// ReadJSON decodes the next value of d into f, as encoding/json would
// with unknown fields rejected.
func (f *File) ReadJSON(d *strictjson.Decoder) {
	d.Object("spec.File", func(key []byte) bool {
		switch {
		case d.Field(key, "name"):
			d.String(&f.Name)
		case d.Field(key, "hardware"):
			f.Hardware.read(d)
		case d.Field(key, "graph"):
			f.Graph.read(d)
		case d.Field(key, "traffic"):
			f.Traffic.read(d)
		default:
			return false
		}
		return true
	})
}

func (h *Hardware) read(d *strictjson.Decoder) {
	d.Object("spec.Hardware", func(key []byte) bool {
		switch {
		case d.Field(key, "interface_bw"):
			h.InterfaceBW.read(d)
		case d.Field(key, "memory_bw"):
			h.MemoryBW.read(d)
		default:
			return false
		}
		return true
	})
}

func (g *GraphSpec) read(d *strictjson.Decoder) {
	d.Object("spec.GraphSpec", func(key []byte) bool {
		switch {
		case d.Field(key, "vertices"):
			strictjson.Slice(d, &g.Vertices, "[]spec.VertexSpec", (*VertexSpec).read)
		case d.Field(key, "edges"):
			strictjson.Slice(d, &g.Edges, "[]spec.EdgeSpec", (*EdgeSpec).read)
		default:
			return false
		}
		return true
	})
}

func (v *VertexSpec) read(d *strictjson.Decoder) {
	d.Object("spec.VertexSpec", func(key []byte) bool {
		switch {
		case d.Field(key, "name"):
			d.String(&v.Name)
		case d.Field(key, "kind"):
			d.String(&v.Kind)
		case d.Field(key, "throughput"):
			v.Throughput.read(d)
		case d.Field(key, "parallelism"):
			d.Int(&v.Parallelism)
		case d.Field(key, "queue_capacity"):
			d.Int(&v.QueueCapacity)
		case d.Field(key, "overhead"):
			d.Float(&v.Overhead)
		case d.Field(key, "acceleration"):
			d.Float(&v.Acceleration)
		case d.Field(key, "partition"):
			d.Float(&v.Partition)
		case d.Field(key, "queue_model"):
			d.String(&v.QueueModel)
		default:
			return false
		}
		return true
	})
}

func (e *EdgeSpec) read(d *strictjson.Decoder) {
	d.Object("spec.EdgeSpec", func(key []byte) bool {
		switch {
		case d.Field(key, "from"):
			d.String(&e.From)
		case d.Field(key, "to"):
			d.String(&e.To)
		case d.Field(key, "delta"):
			d.Float(&e.Delta)
		case d.Field(key, "alpha"):
			d.Float(&e.Alpha)
		case d.Field(key, "beta"):
			d.Float(&e.Beta)
		case d.Field(key, "bandwidth"):
			e.Bandwidth.read(d)
		default:
			return false
		}
		return true
	})
}

func (t *TrafficSpec) read(d *strictjson.Decoder) {
	d.Object("spec.TrafficSpec", func(key []byte) bool {
		switch {
		case d.Field(key, "ingress_bw"):
			t.IngressBW.read(d)
		case d.Field(key, "granularity"):
			t.Granularity.read(d)
		case d.Field(key, "mix"):
			strictjson.Slice(d, &t.Mix, "[]spec.MixComponentSpec", (*MixComponentSpec).read)
		default:
			return false
		}
		return true
	})
}

func (c *MixComponentSpec) read(d *strictjson.Decoder) {
	d.Object("spec.MixComponentSpec", func(key []byte) bool {
		switch {
		case d.Field(key, "weight"):
			d.Float(&c.Weight)
		case d.Field(key, "granularity"):
			c.Granularity.read(d)
		default:
			return false
		}
		return true
	})
}

func (b *Bandwidth) read(d *strictjson.Decoder) {
	v, err := unitValue(d.Raw(), "bandwidth", parseBandwidth)
	if err != nil {
		d.Reject(err)
		return
	}
	*b = Bandwidth(v)
}

func (s *Size) read(d *strictjson.Decoder) {
	v, err := unitValue(d.Raw(), "size", parseSize)
	if err != nil {
		d.Reject(err)
		return
	}
	*s = Size(v)
}

func parseBandwidth(s string) (float64, error) {
	v, err := unit.ParseBandwidth(s)
	return v.BytesPerSecond(), err
}

func parseSize(s string) (float64, error) {
	v, err := unit.ParseSize(s)
	return v.Bytes(), err
}

// unitValue reads a Bandwidth or Size from its JSON value raw: a number,
// or a string that parse reads with its unit. null reads as zero, because
// encoding/json hands null to the UnmarshalJSON methods, which decoded it
// as the number 0.
func unitValue(raw []byte, what string, parse func(string) (float64, error)) (float64, error) {
	switch c := raw[0]; {
	case c == 'n':
		return 0, nil
	case c == '"':
		return parse(string(strictjson.Unquote(raw)))
	case c == '-' || '0' <= c && c <= '9':
		if v, err := strconv.ParseFloat(string(raw), 64); err == nil {
			return v, nil
		}
	}
	return 0, fmt.Errorf("spec: %s must be a number or string: %s", what, raw)
}

// WriteJSON writes f's canonical form: the bytes json.Marshal writes for
// it.
func (f *File) WriteJSON(w *strictjson.Writer) {
	w.Open()
	if f.Name != "" {
		w.Key("name")
		w.String(f.Name)
	}
	w.Key("hardware")
	w.Open()
	omitZero(w, "interface_bw", float64(f.Hardware.InterfaceBW))
	omitZero(w, "memory_bw", float64(f.Hardware.MemoryBW))
	w.Close()
	w.Key("graph")
	w.Open()
	w.Key("vertices")
	strictjson.List(w, f.Graph.Vertices, (*VertexSpec).write)
	w.Key("edges")
	strictjson.List(w, f.Graph.Edges, (*EdgeSpec).write)
	w.Close()
	w.Key("traffic")
	w.Open()
	w.Key("ingress_bw")
	w.Float(float64(f.Traffic.IngressBW))
	w.Key("granularity")
	w.Float(float64(f.Traffic.Granularity))
	if len(f.Traffic.Mix) > 0 {
		w.Key("mix")
		strictjson.List(w, f.Traffic.Mix, (*MixComponentSpec).write)
	}
	w.Close()
	w.Close()
}

func (v *VertexSpec) write(w *strictjson.Writer) {
	w.Open()
	w.Key("name")
	w.String(v.Name)
	omitEmpty(w, "kind", v.Kind)
	omitZero(w, "throughput", float64(v.Throughput))
	if v.Parallelism != 0 {
		w.Key("parallelism")
		w.Int(int64(v.Parallelism))
	}
	if v.QueueCapacity != 0 {
		w.Key("queue_capacity")
		w.Int(int64(v.QueueCapacity))
	}
	omitZero(w, "overhead", v.Overhead)
	omitZero(w, "acceleration", v.Acceleration)
	omitZero(w, "partition", v.Partition)
	omitEmpty(w, "queue_model", v.QueueModel)
	w.Close()
}

func (e *EdgeSpec) write(w *strictjson.Writer) {
	w.Open()
	w.Key("from")
	w.String(e.From)
	w.Key("to")
	w.String(e.To)
	w.Key("delta")
	w.Float(e.Delta)
	omitZero(w, "alpha", e.Alpha)
	omitZero(w, "beta", e.Beta)
	omitZero(w, "bandwidth", float64(e.Bandwidth))
	w.Close()
}

func (c *MixComponentSpec) write(w *strictjson.Writer) {
	w.Open()
	w.Key("weight")
	w.Float(c.Weight)
	w.Key("granularity")
	w.Float(float64(c.Granularity))
	w.Close()
}

// omitZero writes an omitempty float member: omitted when it is 0 or -0.
func omitZero(w *strictjson.Writer, name string, v float64) {
	if v != 0 {
		w.Key(name)
		w.Float(v)
	}
}

// omitEmpty writes an omitempty string member.
func omitEmpty(w *strictjson.Writer, name, v string) {
	if v != "" {
		w.Key(name)
		w.String(v)
	}
}
