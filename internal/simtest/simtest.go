// Package simtest is the golden-digest regression harness for the
// discrete-event simulator and the figure generators built on it. It
// canonically serializes full simulation outcomes — sim.Result with every
// VertexStats and link utilization, the complete packet trace stream, and
// regenerated experiments.Figure tables — into SHA-256 digests, and diffs
// them against digests committed under testdata/.
//
// The digests are the enforcement mechanism behind the event engine's
// determinism contract (docs/SIM.md): any change to the scheduler, the
// event queue, the RNG stream discipline, or the statistics pipeline that
// alters even one bit of one result flips a digest and fails the suite.
// The committed goldens were recorded from the pre-optimization
// container/heap engine, so they prove the specialized 4-ary key/slab heap
// engine replays the exact event sequence the seed engine produced.
//
// Refreshing goldens after an intentional behavior change:
//
//	go test ./internal/sim ./internal/experiments -run Golden -update
//
// Review the diff of the testdata/*.json files like any other code change:
// a digest that moved without a deliberate semantic change is a bug.
package simtest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"lognic/internal/sim"
)

// Update is the shared -update flag: when set, golden checks record the
// observed digest instead of diffing against the committed one. Registered
// here once so every test package importing simtest gets the same flag.
var Update = flag.Bool("update", false, "rewrite golden digest files instead of diffing against them")

// Digester accumulates canonical bytes into a SHA-256 state. Every scalar
// is written in a fixed-width big-endian encoding (float64s as their IEEE
// bit patterns), and every string is length-prefixed, so the byte stream —
// and therefore the digest — is injective over the serialized values.
type Digester struct {
	h hash.Hash
}

// NewDigester returns an empty digest accumulator.
func NewDigester() *Digester {
	return &Digester{h: sha256.New()}
}

// F64 writes one float64 as its exact bit pattern. NaNs and signed zeros
// digest distinctly; no rounding is applied anywhere.
func (d *Digester) F64(v float64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], math.Float64bits(v))
	d.h.Write(buf[:])
}

// U64 writes one uint64.
func (d *Digester) U64(v uint64) {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	d.h.Write(buf[:])
}

// Int writes one int.
func (d *Digester) Int(v int) { d.U64(uint64(int64(v))) }

// Str writes one length-prefixed string.
func (d *Digester) Str(s string) {
	d.U64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// Sum returns the hex digest of everything written so far. The digester
// remains usable; Sum is a snapshot.
func (d *Digester) Sum() string {
	return hex.EncodeToString(d.h.Sum(nil))
}

// ResultDigest canonically hashes a full sim.Result: every scalar field,
// every vertex's stats (sorted by name), every link utilization (sorted by
// name), and the fault counters including per-vertex downtime integrals.
func ResultDigest(r sim.Result) string {
	d := NewDigester()
	WriteResult(d, r)
	return d.Sum()
}

// WriteResult appends a canonical serialization of r to the digester, so
// callers can fold several results (replications, sweep points) into one
// digest.
func WriteResult(d *Digester, r sim.Result) {
	d.Str("result")
	d.F64(r.SimTime)
	d.Int(r.OfferedPackets)
	d.F64(r.OfferedBytes)
	d.Int(r.DeliveredPackets)
	d.F64(r.DeliveredBytes)
	d.F64(r.Throughput)
	d.F64(r.MeanLatency)
	d.F64(r.P50)
	d.F64(r.P95)
	d.F64(r.P99)
	d.F64(r.DropRate)
	d.F64(r.InterfaceUtil)
	d.F64(r.MemoryUtil)
	d.F64(r.Window)
	d.Str("links")
	for _, name := range sortedKeys(r.Links) {
		d.Str(name)
		d.F64(r.Links[name])
	}
	d.Str("vertices")
	for _, name := range sortedKeys(r.Vertices) {
		vs := r.Vertices[name]
		d.Str(name)
		d.Int(vs.Arrivals)
		d.Int(vs.Served)
		d.Int(vs.Dropped)
		d.F64(vs.Utilization)
		d.F64(vs.MeanQueueLen)
		d.F64(vs.MeanWait)
	}
	d.Str("faults")
	d.Int(r.Faults.EngineDownEvents)
	d.Int(r.Faults.EngineUpEvents)
	d.Int(r.Faults.LinkDegradeEvents)
	d.Int(r.Faults.LinkRestores)
	d.Int(r.Faults.VertexStallEvents)
	d.Int(r.Faults.StallRecoveries)
	d.Int(r.Faults.Retries)
	d.Int(r.Faults.RetryDrops)
	for _, name := range sortedKeys(r.Faults.EngineDownTime) {
		d.Str(name)
		d.F64(r.Faults.EngineDownTime[name])
	}
}

// TraceHasher folds a simulator's full packet trace stream into a running
// digest: install Hook as Config.Trace and read Sum after the run. Every
// event's kind, timestamp, vertex, size and birth time is hashed in stream
// order, so two engines agree only if they emit the identical event
// sequence — a far stronger check than comparing end-of-run aggregates.
type TraceHasher struct {
	d      *Digester
	events int
}

// NewTraceHasher returns an empty trace digest.
func NewTraceHasher() *TraceHasher {
	return &TraceHasher{d: NewDigester()}
}

// Hook is the Config.Trace callback.
func (t *TraceHasher) Hook(e sim.TraceEvent) {
	t.d.Int(int(e.Kind))
	t.d.F64(e.Time)
	t.d.Str(e.Vertex)
	t.d.F64(e.Size)
	t.d.F64(e.Born)
	t.events++
}

// Events is the number of trace events hashed.
func (t *TraceHasher) Events() int { return t.events }

// Sum is the hex digest of the stream so far.
func (t *TraceHasher) Sum() string { return t.d.Sum() }

// Golden is one committed digest file: a flat map from a descriptive key
// ("liquidio2-md5/seed1/result") to a hex digest. Check records observed
// digests; in update mode Save rewrites the file, otherwise Check fails
// the test on any mismatch or missing entry.
type Golden struct {
	path string
	mu   sync.Mutex
	want map[string]string
	got  map[string]string
}

// testingT is the slice of *testing.T the harness needs; taking the
// interface keeps simtest importable from both tests and generators.
type testingT interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
	Logf(format string, args ...any)
}

// LoadGolden opens the digest file at path (conventionally
// testdata/golden_digests.json relative to the test package). A missing
// file is only an error outside update mode.
func LoadGolden(t testingT, path string) *Golden {
	t.Helper()
	g := &Golden{path: path, want: map[string]string{}, got: map[string]string{}}
	data, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &g.want); err != nil {
			t.Fatalf("simtest: golden file %s is corrupt: %v", path, err)
		}
	case os.IsNotExist(err) && *Update:
		// First recording: Save will create it.
	default:
		t.Fatalf("simtest: reading golden file %s: %v (run with -update to record)", path, err)
	}
	return g
}

// Check compares one observed digest against the committed golden. In
// update mode it records the digest for Save instead.
func (g *Golden) Check(t testingT, key, digest string) {
	t.Helper()
	g.mu.Lock()
	g.got[key] = digest
	want, ok := g.want[key]
	g.mu.Unlock()
	if *Update {
		return
	}
	if !ok {
		t.Errorf("simtest: no golden digest for %q (run with -update to record)", key)
		return
	}
	if digest != want {
		t.Errorf("simtest: digest mismatch for %q:\n  got  %s\n  want %s\nresults diverged from the recorded engine — if intentional, refresh with -update", key, digest, want)
	}
}

// Save writes the recorded digests back to the golden file in update mode
// (sorted keys, stable formatting); outside update mode it verifies no
// committed key went unchecked, so stale goldens cannot linger silently.
func (g *Golden) Save(t testingT) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if !*Update {
		for key := range g.want {
			if _, ok := g.got[key]; !ok {
				t.Errorf("simtest: golden file %s has stale entry %q no test checked (refresh with -update)", g.path, key)
			}
		}
		return
	}
	keys := sortedKeys(g.got)
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		out[k] = g.got[k]
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatalf("simtest: marshaling goldens: %v", err)
	}
	if err := os.MkdirAll(filepath.Dir(g.path), 0o755); err != nil {
		t.Fatalf("simtest: creating testdata dir: %v", err)
	}
	if err := os.WriteFile(g.path, append(data, '\n'), 0o644); err != nil {
		t.Fatalf("simtest: writing golden file %s: %v", g.path, err)
	}
	t.Logf("simtest: recorded %d golden digests to %s", len(out), g.path)
}

// Key joins key segments with '/', the harness's naming convention.
func Key(parts ...any) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "/"
		}
		out += fmt.Sprint(p)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
