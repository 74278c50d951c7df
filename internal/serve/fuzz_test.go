package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"lognic/internal/storm"
)

// oracleDecode is the model endpoints' reference decoder:
// encoding/json with unknown fields rejected. The request decoder must
// agree with it on every input — the same accept/reject decision, the
// same error text and, on success, an equal value.
func oracleDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: bad request body: %w", err)
	}
	return nil
}

// oracleKey is the reference cache key: sha256(endpoint NUL
// json.Marshal(dto)).
func oracleKey(endpoint string, dto any) (string, error) {
	canon, err := json.Marshal(dto)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(append([]byte(endpoint+"\x00"), canon...))
	return hex.EncodeToString(sum[:]), nil
}

// newDTO returns a zero request of the endpoint's type.
func newDTO(endpoint string) modelRequest {
	switch endpoint {
	case "estimate":
		return &EstimateRequest{}
	case "optimize":
		return &OptimizeRequest{}
	default:
		return &SimulateRequest{}
	}
}

var fuzzEndpoints = []string{"estimate", "optimize", "simulate"}

// requestQuirks are bodies on the edges of what encoding/json accepts:
// folded key case, duplicate keys, nulls, empty vs absent arrays, bytes
// after the value, numbers that do not fit their field, escapes, and
// syntax errors in every scanner state.
var requestQuirks = []string{
	`{"SPEC": {"Name": "x", "GRAPH": {"Vertices": [{"NAME": "a", "Kind": "ip"}]}}}`,
	`{"ſpec": {"Kind": 1}, "ſeed": 2, "Knobs": [], "Goal": "latency"}`,
	`{"spec": {"name": "a", "name": "b", "name": null}}`,
	`{"spec": {"graph": {"vertices": [{"name": "a", "kind": "ip", "parallelism": 2}, {"name": "b"}], "vertices": [{"name": "c"}], "vertices": [{"kind": "egress"}, {}]}}}`,
	`{"spec": {"graph": {"vertices": [{"name": "a"}], "vertices": []}}}`,
	`{"spec": {"graph": {"vertices": [], "edges": null}}, "knobs": []}`,
	`{"spec": {"graph": {"edges": [{"from": "a"}], "edges": null}}, "knobs": [{"vertex": "x"}], "knobs": null}`,
	`{"spec": {"hardware": {"interface_bw": "5Gbps", "interface_bw": null, "memory_bw": null}, "traffic": {"granularity": null, "mix": [null, {"weight": null}]}}}`,
	`{"spec": null}`,
	`null`,
	`nullx`,
	`5x`,
	`"spec"`,
	`[{"spec": {}}]`,
	`{"spec": {}} trailing {`,
	`{"spec": {}}}`,
	`{"spec": {"graph": {"vertices": [{"name": "a", "parallelism": 1.5}]}}}`,
	`{"spec": {"graph": {"vertices": [{"name": "a", "parallelism": "2"}]}}}`,
	`{"spec": {"graph": {"vertices": [{"name": "a", "queue_capacity": 1e2}]}}}`,
	`{"spec": {}, "seed": -0, "max_events": -0}`,
	`{"spec": {}, "seed": 9223372036854775808}`,
	`{"spec": {}, "max_events": 18446744073709551615, "deterministic": true, "warmup": -0, "shards": -1}`,
	`{"spec": {}, "deterministic": 1, "duration": true}`,
	`{"spec": {"name": "a&<>  \ud800x\udc00😀\"\\\/\b\f\n\r\t\u0000"}}`,
	"{\"spec\": {\"name\": \"bad \xff\xfe utf8 \xed\xa0\x80\"}}",
	"{\"sp\xffec\": {}}",
	`{"spec": {"graph": {"edges": [{"delta": 1e-7, "alpha": 1e21, "beta": -0, "bandwidth": 5e-324}]}}}`,
	`{"spec": {"graph": {"edges": [{"delta": 1e-400}]}}}`,
	`{"spec": {"graph": {"edges": [{"delta": 1e400}]}}}`,
	`{"spec": {"graph": {"edges": [{"bandwidth": 1e400}]}}}`,
	`{"spec": {"graph": {"edges": [{"bandwidth": -0, "delta": 123456789012345678901234567890}]}}}`,
	`{"spec": {"hardware": {"interface_bw": "inf"}, "traffic": {"ingress_bw": "-0", "granularity": "nan"}}}`,
	`{"spec": {"traffic": {"ingress_bw": "1e400Gbps", "granularity": "1e308GB"}}}`,
	`{"spec": {"traffic": {"ingress_bw": 1, "granularity": 1, "mix": [{"weight": 1, "granularity": "inf"}]}}}`,
	`{"spec": {"hardware": {"interface_bw": [1, 2]}}}`,
	`{"spec": {"hardware": {"interface_bw": "5Gbps", "memory_bw": "  7 GB/s "}}}`,
	`{"spec": {"hardware": 5, "graph": "x", "traffic": []}}`,
	`{"spec": {"graph": {"vertices": [1, "a", true, null, []]}}}`,
	`{"spec": {"graph": {"vertices": {}}}}`,
	`{"spec": {"x": {"deep": [1, {"y": null}]}, "hardware": {"memory_bw": true}}}`,
	`{"spec": {"hardware": {"memory_bw": false}}, "extra": 1}`,
	`{"spec": {"name": 1, "hardware": {"memory_bw": "1XB"}}}`,
	`{"goal": "latency", "max_evals": 3, "knobs": [{"vertex": "a", "param": "queue", "lo": 1, "hi": 2}], "spec": {}}`,
	`{"spec": {}, "knobs": [{"lo": -1, "hi": 1.0}]}`,
	``,
	" \t\r\n",
	`{`,
	`{"spec"`,
	`{"spec":`,
	`{"spec": {"name": "a`,
	`{"spec": {"name": "a\`,
	`{"spec": {"name": "a\u12`,
	`{"spec": 1.`,
	`{"spec": -`,
	`{"spec": tru`,
	`{"spec": }`,
	`{"spec": {x}}`,
	`{"spec" 1}`,
	`{"spec": 1 2}`,
	`{"spec": [1 2]}`,
	`{"spec": {"name": "a\x"}}`,
	`{"spec": {"name": "a\u12x4"}}`,
	`{"spec": 01}`,
	`{"spec": -x}`,
	`{"spec": 1.e5}`,
	`{"spec": 1e}`,
	`{"spec": 1e+x}`,
	`{"spec": trUe}`,
	`{"spec": fals}`,
	`{"spec": nulL}`,
	`{"spec": {"name": "a",}}`,
	`{"spec": [,]}`,
	`{"spec": ['a']}`,
	"\xef\xbb\xbf{}",
	"{\"spec\": {\"name\": \"a\x1f\"}}",
	`{"spec": ` + strings.Repeat(`[`, 10001) + `}`,
	`{"spec": {"name": ` + strings.Repeat(`[`, 9998) + strings.Repeat(`]`, 9998) + `}}`,
}

// fuzzSeeds returns every corpus body the fuzz target starts from.
func fuzzSeeds(t testing.TB) []string {
	seeds := append([]string(nil), requestQuirks...)
	seeds = append(seeds, estimateBody(sampleSpec))
	for _, endpoint := range fuzzEndpoints {
		pool, err := storm.BuildCorpus(storm.CorpusConfig{Endpoint: endpoint, Unique: 4, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range pool {
			seeds = append(seeds, string(it.Body))
		}
	}
	for _, c := range goldenCorpus(t) {
		if !strings.HasPrefix(c.name, "nfchain") && !strings.HasPrefix(c.name, "panic") {
			continue
		}
		for _, dto := range []any{
			EstimateRequest{Spec: c.spec},
			OptimizeRequest{Spec: c.spec, Goal: "goodput", Knobs: c.knobs},
			SimulateRequest{Spec: c.spec, Duration: 0.002, Seed: 9},
		} {
			body, err := json.Marshal(dto)
			if err != nil {
				t.Fatal(err)
			}
			seeds = append(seeds, string(body))
		}
	}
	return seeds
}

// envelopeQuirks are POST /v1/jobs bodies on the edges of what
// encoding/json accepts for the envelope.
var envelopeQuirks = []string{
	`{"KIND": "estimate", "Request": null}`,
	`{"kind": null, "request": [1, {"a": "b"}]}`,
	`{"kind": "optimize", "kind": "simulate", "request": 1, "request": "x"}`,
	`{"kind": "estimate", "request": {"spec": {}}, "extra": 1}`,
	`{"kind": 1, "request": {}}`,
	`{"kind": "\u0065stimate", "request":  true }`,
	`{"kind": "simulate", "request": {"spec": {}, "duration": 1}`,
	`{"request": {"spec": {"name": "a",]}}}`,
}

// FuzzServeRequest runs the request path — decode, validate, cache key —
// differentially against encoding/json for four body shapes: the three
// model endpoints and the POST /v1/jobs envelope. Every input must get
// the oracle's accept/reject decision and error text, every accepted
// input the oracle's value (and, for a model request, cache key), and no
// input may be answered with a 5xx.
func FuzzServeRequest(f *testing.F) {
	seeds := fuzzSeeds(f)
	for _, body := range seeds {
		for ep := range fuzzEndpoints {
			f.Add(uint8(ep), []byte(body))
		}
	}
	envelope := uint8(len(fuzzEndpoints))
	for _, body := range append(seeds, envelopeQuirks...) {
		f.Add(envelope, []byte(body))
	}
	for i, body := range seeds {
		f.Add(envelope, []byte(fmt.Sprintf(`{"kind": %q, "request": %s}`, fuzzEndpoints[i%len(fuzzEndpoints)], body)))
	}
	s := NewServer(Config{})
	f.Cleanup(s.Close)
	f.Fuzz(func(t *testing.T, ep uint8, body []byte) {
		if int(ep)%(len(fuzzEndpoints)+1) == len(fuzzEndpoints) {
			fuzzEnvelope(t, s, body)
			return
		}
		endpoint := fuzzEndpoints[int(ep)%(len(fuzzEndpoints)+1)]
		want, got := newDTO(endpoint), newDTO(endpoint)
		wantErr := oracleDecode(body, want)
		gotErr := decodeRequest(body, got)
		switch {
		case (wantErr == nil) != (gotErr == nil):
			t.Fatalf("%s %q: decode error %v, oracle %v", endpoint, body, gotErr, wantErr)
		case wantErr != nil && wantErr.Error() != gotErr.Error():
			t.Fatalf("%s %q: decode error\n %v\noracle\n %v", endpoint, body, gotErr, wantErr)
		case wantErr == nil:
			// %#v tells nil from empty slices and -0 from 0 like
			// reflect.DeepEqual, and also matches NaN with NaN, which a
			// unit string such as "nan" decodes to.
			if fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want) {
				t.Fatalf("%s %q: decoded\n %#v\noracle\n %#v", endpoint, body, got, want)
			}
			wantKey, wantKeyErr := oracleKey(endpoint, want)
			gotKey, gotKeyErr := cacheKey(endpoint, got)
			if (wantKeyErr == nil) != (gotKeyErr == nil) || gotKey != wantKey {
				t.Fatalf("%s %q: key %s (%v), oracle %s (%v)", endpoint, body, gotKey, gotKeyErr, wantKey, wantKeyErr)
			}
		}
		if _, err := s.jobPreparer(endpoint)(body); err != nil && statusFor(err) >= http.StatusInternalServerError {
			t.Fatalf("%s %q: status %d: %v", endpoint, body, statusFor(err), err)
		}
	})
}

// fuzzEnvelope checks one POST /v1/jobs body against encoding/json
// decoding into JobSubmitRequest, then runs an accepted envelope's request
// through its kind's preparer, as submission does.
func fuzzEnvelope(t *testing.T, s *Server, body []byte) {
	var want, got JobSubmitRequest
	wantErr := oracleDecode(body, &want)
	gotErr := decodeRequest(body, &got)
	switch {
	case (wantErr == nil) != (gotErr == nil):
		t.Fatalf("envelope %q: decode error %v, oracle %v", body, gotErr, wantErr)
	case wantErr != nil:
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("envelope %q: decode error\n %v\noracle\n %v", body, gotErr, wantErr)
		}
		return
	case fmt.Sprintf("%#v", got) != fmt.Sprintf("%#v", want):
		t.Fatalf("envelope %q: decoded\n %#v\noracle\n %#v", body, got, want)
	}
	if prep := s.jobPreparer(got.Kind); prep != nil {
		if _, err := prep(got.Request); err != nil && statusFor(err) >= http.StatusInternalServerError {
			t.Fatalf("envelope %q: status %d: %v", body, statusFor(err), err)
		}
	}
}
