package core

import (
	"fmt"
	"math"
	"testing"
)

// fuzzFloat maps one byte to a float64, reserving the top values for the
// non-finite pathologies graph validation must reject without panicking.
func fuzzFloat(b byte) float64 {
	switch b {
	case 255:
		return math.NaN()
	case 254:
		return math.Inf(1)
	case 253:
		return math.Inf(-1)
	default:
		return float64(int8(b)) / 16 // spans negatives and fractions
	}
}

// decodeGraph turns arbitrary bytes into a vertex/edge soup: structurally
// varied, frequently invalid, deterministic for a given input.
func decodeGraph(data []byte) ([]Vertex, []Edge) {
	if len(data) == 0 {
		return nil, nil
	}
	nv := 2 + int(data[0]%6)
	data = data[1:]
	vertices := make([]Vertex, 0, nv)
	for i := 0; i < nv; i++ {
		var b [4]byte
		for j := range b {
			if len(data) > 0 {
				b[j] = data[0]
				data = data[1:]
			}
		}
		kind := VertexKind(b[0] % 5) // one past KindRateLimiter: invalid kinds too
		switch i {
		case 0:
			kind = KindIngress
		case nv - 1:
			kind = KindEgress
		}
		vertices = append(vertices, Vertex{
			Name:          fmt.Sprintf("v%d", i),
			Kind:          kind,
			Throughput:    fuzzFloat(b[1]) * 1e9,
			Parallelism:   int(b[2]%10) - 1,
			QueueCapacity: int(b[3]%70) - 2,
		})
	}
	var edges []Edge
	for len(data) >= 5 {
		edges = append(edges, Edge{
			From:  fmt.Sprintf("v%d", int(data[0])%nv),
			To:    fmt.Sprintf("v%d", int(data[1])%nv),
			Delta: fuzzFloat(data[2]),
			Alpha: fuzzFloat(data[3]),
			Beta:  fuzzFloat(data[4]),
		})
		data = data[5:]
	}
	return vertices, edges
}

// FuzzNewGraph checks that arbitrary vertex/edge soups never panic graph
// construction, and that any graph NewGraph accepts answers the model's
// queries (paths, saturation, full estimate) without panicking. Use
// `go test -fuzz=FuzzNewGraph ./internal/core` to explore.
func FuzzNewGraph(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	// A valid 3-vertex chain: in -> v1 -> out with delta/alpha 1.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 16, 3, 65, 0, 0, 0, 0, 0, 1, 16, 16, 0, 1, 2, 16, 0, 0})
	// A cycle and a self-loop.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 16, 3, 65, 0, 0, 0, 0, 1, 1, 16, 0, 0, 1, 1, 16, 0, 0})
	// Non-finite fractions.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 255, 254, 253})
	f.Fuzz(func(t *testing.T, data []byte) {
		vertices, edges := decodeGraph(data)
		g, err := NewGraph("fuzz", vertices, edges)
		if err != nil {
			return // invalid soups must fail, not panic
		}
		if _, err := g.Paths(); err != nil {
			return // e.g. no complete ingress->egress path
		}
		m := Model{
			Hardware: Hardware{InterfaceBW: 10e9, MemoryBW: 20e9},
			Graph:    g,
			Traffic:  Traffic{IngressBW: 1e9, Granularity: 1500},
		}
		// Estimation may reject the model, but must not panic, and any
		// throughput it does report must not be negative or NaN.
		est, err := m.Estimate()
		if err != nil {
			return
		}
		a := est.Throughput.Attainable
		if a < 0 || math.IsNaN(a) {
			t.Fatalf("estimate produced invalid throughput %v", a)
		}
	})
}

// FuzzWithVertex checks WithVertex against the constructor it shortcuts:
// replacing one vertex of a valid graph (keeping its kind or not) must
// agree with NewGraph over the edited vertex list — the same error, or
// the same vertices, edges, paths and estimate. Use
// `go test -fuzz=FuzzWithVertex ./internal/core` to explore.
func FuzzWithVertex(f *testing.F) {
	// Valid graphs: in -> v1 -> out, and a 50/50 fork-join.
	chain := []byte{1, 0, 0, 0, 2, 0, 16, 3, 65, 0, 0, 0, 2, 0, 1, 16, 16, 0, 1, 2, 16, 0, 0}
	fork := []byte{2, 0, 0, 0, 2, 0, 16, 3, 10, 0, 32, 1, 20, 0, 0, 0, 2,
		0, 1, 8, 8, 0, 0, 2, 8, 8, 0, 1, 3, 8, 0, 0, 2, 3, 8, 0, 0}
	f.Add(chain, byte(1), byte(0), byte(32), byte(5), byte(9))   // same kind, new parameters
	f.Add(chain, byte(1), byte(0), byte(255), byte(5), byte(9))  // same kind, NaN throughput
	f.Add(chain, byte(1), byte(3), byte(32), byte(5), byte(2))   // IP becomes an ingress
	f.Add(chain, byte(2), byte(0), byte(32), byte(5), byte(2))   // egress parameters
	f.Add(chain, byte(0), byte(0), byte(16), byte(0), byte(40))  // ingress given a queue
	f.Add(chain, byte(1), byte(7), byte(16), byte(200), byte(1)) // rate limiter
	f.Add(fork, byte(2), byte(0), byte(48), byte(7), byte(30))   // one branch retuned
	f.Add(fork, byte(1), byte(5), byte(48), byte(7), byte(2))    // a branch becomes an egress
	f.Fuzz(func(t *testing.T, data []byte, pick, kind, tput, par, queue byte) {
		vertices, edges := decodeGraph(data)
		g, err := NewGraph("fuzz", vertices, edges)
		if err != nil {
			return
		}
		i := int(pick) % len(vertices)
		v := Vertex{
			Name:          vertices[i].Name,
			Kind:          vertices[i].Kind,
			Throughput:    fuzzFloat(tput) * 1e9,
			Parallelism:   int(par%10) - 1,
			QueueCapacity: int(queue%70) - 2,
		}
		if kind%2 == 1 {
			v.Kind = VertexKind(kind / 2 % 5)
		}
		edited := append([]Vertex(nil), vertices...)
		edited[i] = v
		got, gotErr := g.WithVertex(v)
		want, wantErr := NewGraph("fuzz", edited, edges)
		if gotErr != nil || wantErr != nil {
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("WithVertex error %v, NewGraph error %v", gotErr, wantErr)
			}
			return
		}
		same := func(what string, a, b any) {
			t.Helper()
			// %v prints floats exactly and NaN equal to NaN.
			if fmt.Sprintf("%v", a) != fmt.Sprintf("%v", b) {
				t.Fatalf("%s differ:\nWithVertex %v\nNewGraph   %v", what, a, b)
			}
		}
		same("names", got.Name(), want.Name())
		same("vertices", got.Vertices(), want.Vertices())
		same("edges", got.Edges(), want.Edges())
		gp, gerr := got.Paths()
		wp, werr := want.Paths()
		same("paths", []any{gp, gerr}, []any{wp, werr})
		hw := Hardware{InterfaceBW: 10e9, MemoryBW: 20e9}
		tr := Traffic{IngressBW: 1e9, Granularity: 1500}
		ge, gerr := Model{Hardware: hw, Graph: got, Traffic: tr}.Estimate()
		we, werr := Model{Hardware: hw, Graph: want, Traffic: tr}.Estimate()
		same("estimates", []any{ge, gerr}, []any{we, werr})
	})
}
