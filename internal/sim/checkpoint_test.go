package sim_test

// Checkpoint/resume correctness: a run interrupted at an arbitrary
// checkpoint and resumed from the serialized snapshot must produce a
// Result byte-identical (golden digest) to the same run uninterrupted.
// The scenarios reuse the golden suite's configs, so every scheduling
// path — shared and per-edge queues, all routing policies, faults,
// retries, bursty flows, deterministic service — is exercised.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"strings"
	"testing"

	"lognic/internal/sim"
	"lognic/internal/simtest"
)

// captureCheckpoints runs cfg with a sink collecting an encoded snapshot
// every `every` events, returning the result and the serialized
// checkpoints in capture order.
func captureCheckpoints(t testing.TB, cfg sim.Config, every uint64) (sim.Result, [][]byte) {
	t.Helper()
	var cks [][]byte
	cfg.CheckpointEvery = every
	cfg.CheckpointSink = func(c *sim.Checkpoint) error {
		b, err := c.Encode()
		if err != nil {
			return err
		}
		cks = append(cks, b)
		return nil
	}
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cks
}

// resumeFrom decodes one serialized checkpoint and runs the rest of the
// simulation from it.
func resumeFrom(t *testing.T, cfg sim.Config, encoded []byte) sim.Result {
	t.Helper()
	cfg.CheckpointEvery = 0
	cfg.CheckpointSink = nil
	ck, err := sim.DecodeCheckpoint(encoded)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.Resume(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every golden scenario, interrupted mid-run and resumed from a
// serialized checkpoint, digests identically to the uninterrupted run.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	d := goldenDevices(t)[0]
	for _, seed := range []int64{1, 2} {
		for name, cfg := range goldenScenarios(t, d, seed) {
			base, err := sim.Run(cfg)
			if err != nil {
				t.Fatalf("%s/seed%d: %v", name, seed, err)
			}
			want := simtest.ResultDigest(base)

			_, cks := captureCheckpoints(t, cfg, 5000)
			if len(cks) == 0 {
				t.Fatalf("%s/seed%d: run too short for any checkpoint", name, seed)
			}
			// Resume from the middle checkpoint (deepest interesting state)
			// and from the last (shortest remaining run).
			for _, i := range []int{len(cks) / 2, len(cks) - 1} {
				got := simtest.ResultDigest(resumeFrom(t, cfg, cks[i]))
				if got != want {
					t.Errorf("%s/seed%d: resume from checkpoint %d/%d digests %s, uninterrupted %s",
						name, seed, i+1, len(cks), got, want)
				}
			}
		}
	}
}

// Resuming from every checkpoint of one scenario — including the first,
// taken inside warmup — reproduces the uninterrupted digest.
func TestCheckpointResumeEveryPoint(t *testing.T) {
	cfg := goldenScenarios(t, goldenDevices(t)[0], 3)["faults-retry"]
	base, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := simtest.ResultDigest(base)
	_, cks := captureCheckpoints(t, cfg, 3000)
	for i, b := range cks {
		if got := simtest.ResultDigest(resumeFrom(t, cfg, b)); got != want {
			t.Fatalf("resume from checkpoint %d/%d digests %s, want %s", i+1, len(cks), got, want)
		}
	}
}

// The 64-tenant mesh holds hundreds of pending events, far more than
// the event queue's run, so its snapshots are taken with the run
// overflowed into the heap. A resume from a mid-run one, which loads every
// event into the heap with the run empty, digests identically to the
// uninterrupted run.
func TestCheckpointResumeMesh(t *testing.T) {
	cfg, err := sim.MeshConfig(64, 0.7, 1, 2e-4)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := simtest.ResultDigest(base)

	var s *sim.Simulator
	var cks [][]byte
	var inHeap []int
	cfg.CheckpointEvery = 20000
	cfg.CheckpointSink = func(c *sim.Checkpoint) error {
		b, err := c.Encode()
		if err != nil {
			return err
		}
		cks = append(cks, b)
		inHeap = append(inHeap, s.QueuedInHeap())
		return nil
	}
	if s, err = sim.New(cfg); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(cks) < 2 {
		t.Fatalf("%d checkpoints, want at least 2", len(cks))
	}
	i := len(cks) / 2
	ck, err := sim.DecodeCheckpoint(cks[i])
	if err != nil {
		t.Fatal(err)
	}
	if inHeap[i] == 0 {
		t.Fatalf("checkpoint %d/%d holds %d events, none of them in the heap: the run did not overflow",
			i+1, len(cks), len(ck.Events))
	}
	if got := simtest.ResultDigest(resumeFrom(t, cfg, cks[i])); got != want {
		t.Errorf("resume from checkpoint %d/%d digests %s, uninterrupted %s", i+1, len(cks), got, want)
	}
}

// The checkpointing run itself (sink enabled) must not perturb the
// simulation: its result digests identically to a bare run.
func TestCheckpointSinkIsObserverOnly(t *testing.T) {
	cfg := goldenScenarios(t, goldenDevices(t)[0], 1)["wrr"]
	base, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withSink, _ := captureCheckpoints(t, cfg, 2000)
	if simtest.ResultDigest(base) != simtest.ResultDigest(withSink) {
		t.Fatal("enabling checkpoints changed the run result")
	}
}

// TestCheckpointEncodingGolden pins the serialized checkpoint bytes, not
// just the results a resume reproduces: the SHA-256 of every Encode()
// output, taken every 2000 events, of a run that puts every kind of state
// into its snapshots — per-edge WRR queues, engine loss and recovery, a
// timed degrade of the dedicated front->b link, a vertex stall, and
// retries. Checkpoints written by one engine revision must resume on the
// next, so a change to how the engine holds its state in memory must not
// change a byte of what it writes. Refresh intentionally changed goldens
// with:
//
//	go test ./internal/sim -run TestCheckpointEncodingGolden -update
func TestCheckpointEncodingGolden(t *testing.T) {
	g := simtest.LoadGolden(t, "testdata/checkpoint_digests.json")
	defer g.Save(t)
	d := goldenDevices(t)[0]
	for _, seed := range []int64{1, 2} {
		cfg := goldenScenarios(t, d, seed)["wrr"]
		dur := cfg.Duration
		cfg.Faults = sim.FaultSchedule{
			{Kind: sim.EngineDown, Time: 0.2 * dur, Vertex: "a", Count: 3},
			{Kind: sim.EngineUp, Time: 0.5 * dur, Vertex: "a", Count: 3},
			{Kind: sim.LinkDegrade, Time: 0.3 * dur, Link: "front->b", Factor: 0.3, Duration: 0.2 * dur},
			{Kind: sim.VertexStall, Time: 0.7 * dur, Vertex: "sink", Duration: 0.05 * dur},
		}
		cfg.Retry = map[string]sim.RetryPolicy{
			"a":    {MaxRetries: 2, Backoff: 2e-6},
			"sink": {MaxRetries: 2, Backoff: 2e-6},
		}
		res, cks := captureCheckpoints(t, cfg, 2000)
		f := res.Faults
		if f.Retries == 0 || f.LinkRestores != 1 || f.StallRecoveries != 1 || f.EngineUpEvents != 1 {
			t.Fatalf("seed%d: scenario misses a state kind: %+v", seed, f)
		}
		perEdge := false
		for _, b := range cks {
			ck, err := sim.DecodeCheckpoint(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range ck.Nodes {
				for _, q := range n.Queue.PerEdge {
					perEdge = perEdge || len(q) > 0
				}
			}
		}
		if !perEdge {
			t.Fatalf("seed%d: no checkpoint holds a packet in a per-edge queue", seed)
		}
		g.Check(t, simtest.Key(d.name, "seed", seed, "count"), simtest.Key(len(cks)))
		for i, b := range cks {
			sum := sha256.Sum256(b)
			g.Check(t, simtest.Key(d.name, "seed", seed, "ckpt", i), hex.EncodeToString(sum[:]))
		}
	}
}

// Resume validates the checkpoint against the config.
func TestResumeValidation(t *testing.T) {
	cfg := goldenScenarios(t, goldenDevices(t)[0], 1)["delta"]
	_, cks := captureCheckpoints(t, cfg, 5000)
	ck, err := sim.DecodeCheckpoint(cks[0])
	if err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Seed = cfg.Seed + 7
	if _, err := sim.Resume(bad, ck); err == nil {
		t.Error("seed mismatch accepted")
	}
	bad = cfg
	bad.Duration = cfg.Duration * 2
	if _, err := sim.Resume(bad, ck); err == nil {
		t.Error("duration mismatch accepted")
	}
	bad = cfg
	bad.PerEdgeQueues = true
	if _, err := sim.Resume(bad, ck); err == nil {
		t.Error("queue-organization mismatch accepted")
	}
	if _, err := sim.Resume(cfg, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	wrr := goldenScenarios(t, goldenDevices(t)[0], 1)["wrr"]
	_, wcks := captureCheckpoints(t, wrr, 5000)
	wck, err := sim.DecodeCheckpoint(wcks[0])
	if err != nil {
		t.Fatal(err)
	}
	truncated := false
	for i := range wck.Nodes {
		if q := &wck.Nodes[i].Queue; len(q.Upstreams) > 1 {
			q.PerEdge = q.PerEdge[:1]
			truncated = true
		}
	}
	if !truncated {
		t.Fatal("wrr checkpoint has no vertex with several upstream queues")
	}
	if _, err := sim.Resume(wrr, wck); err == nil {
		t.Error("per-edge queue contents shorter than the upstream list accepted")
	}
	if _, err := sim.DecodeCheckpoint([]byte("not a checkpoint")); err == nil {
		t.Error("garbage bytes decoded")
	}
}

// A sink error aborts the run with that error.
func TestCheckpointSinkErrorAborts(t *testing.T) {
	cfg := goldenScenarios(t, goldenDevices(t)[0], 1)["delta"]
	sinkErr := errors.New("disk on fire")
	cfg.CheckpointEvery = 1000
	cfg.CheckpointSink = func(*sim.Checkpoint) error { return sinkErr }
	if _, err := sim.Run(cfg); !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
}

// CheckpointEvery without a sink is a config error.
func TestCheckpointEveryNeedsSink(t *testing.T) {
	cfg := goldenScenarios(t, goldenDevices(t)[0], 1)["delta"]
	cfg.CheckpointEvery = 1000
	if _, err := sim.New(cfg); err == nil {
		t.Fatal("CheckpointEvery without CheckpointSink accepted")
	}
}

// The MaxEvents budget spans the logical run: a resumed simulator counts
// the pre-interrupt events against the budget.
func TestResumeBudgetSpansLogicalRun(t *testing.T) {
	cfg := goldenScenarios(t, goldenDevices(t)[0], 1)["delta"]
	_, cks := captureCheckpoints(t, cfg, 5000)
	ck, err := sim.DecodeCheckpoint(cks[len(cks)-1])
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxEvents = ck.Processed // already spent at the checkpoint
	s, err := sim.Resume(cfg, ck)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

// Resume rejects checkpoint events whose references do not resolve
// against the config instead of guessing: an upstream vertex that does not
// exist (once silently routed to WRR queue 0), a link that does not exist,
// and a link restore whose fault index falls outside the schedule (the
// restore looks its link up through that fault).
func TestResumeRejectsDanglingEventRefs(t *testing.T) {
	cfg := goldenScenarios(t, goldenDevices(t)[0], 3)["faults-retry"]
	_, cks := captureCheckpoints(t, cfg, 3000)
	// The first checkpoint taken while the timed LinkDegrade is in force
	// holds its pending restore (the only event naming a link) and, like
	// every mid-run snapshot, packets in transfer from an upstream vertex
	// and in service. One with a packet waiting in a queue is picked too.
	var encoded []byte
	var restore, arrive, service int
	var queuedPkt int32
	for _, b := range cks {
		ck, err := sim.DecodeCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		restore, arrive, service, queuedPkt = -1, -1, -1, -1
		for i, e := range ck.Events {
			switch {
			case e.Link != "":
				restore = i
			case e.From != "":
				arrive = i
			case e.Kind == sim.KindServiceDone:
				service = i
			}
		}
		for _, n := range ck.Nodes {
			if len(n.Queue.Shared) > 0 {
				queuedPkt = n.Queue.Shared[0].Pkt
			}
		}
		if restore >= 0 && arrive >= 0 && service >= 0 && queuedPkt >= 0 {
			encoded = b
			break
		}
	}
	if encoded == nil {
		t.Fatal("no checkpoint holds a pending link restore, an in-transfer arrival, a service and a queued packet")
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(*sim.Checkpoint)
	}{
		{"unknown from", "unknown vertex", func(c *sim.Checkpoint) { c.Events[arrive].From = "no-such-vertex" }},
		{"unknown link", "unknown link", func(c *sim.Checkpoint) { c.Events[restore].Link = "no-such-link" }},
		{"restore index past schedule", "out of range", func(c *sim.Checkpoint) { c.Events[restore].Idx = int32(len(cfg.Faults)) }},
		{"negative restore index", "out of range", func(c *sim.Checkpoint) { c.Events[restore].Idx = -1 }},
		{"arrival at no vertex", "names no vertex", func(c *sim.Checkpoint) { c.Events[arrive].Node = "" }},
		{"service at no vertex", "names no vertex", func(c *sim.Checkpoint) { c.Events[service].Node = "" }},
		{"stall recovery at no vertex", "names no vertex", func(c *sim.Checkpoint) {
			e := &c.Events[restore]
			e.Kind, e.Node, e.From, e.Link = sim.KindStallRecover, "", "", ""
		}},
		{"arrival without packet", "packet index -1", func(c *sim.Checkpoint) { c.Events[arrive].Pkt = -1 }},
		{"service without packet", "packet index -1", func(c *sim.Checkpoint) { c.Events[service].Pkt = -1 }},
		{"unknown kind", "unknown kind", func(c *sim.Checkpoint) { c.Events[arrive].Kind = 200 }},
		{"packet on two events", "referenced twice", func(c *sim.Checkpoint) { c.Events[service].Pkt = c.Events[arrive].Pkt }},
		{"packet on an event and a queue slot", "referenced twice", func(c *sim.Checkpoint) { c.Events[arrive].Pkt = queuedPkt }},
	} {
		ck, err := sim.DecodeCheckpoint(encoded)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Resume(cfg, ck); err != nil {
			t.Fatalf("%s: unmodified checkpoint rejected: %v", tc.name, err)
		}
		tc.mutate(ck)
		_, err = sim.Resume(cfg, ck)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Resume err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}

// fuzzReplayBound caps the stream positions FuzzResume replays. Resume
// fast-forwards both random streams draw by draw, so its cost is linear
// in them; a mutated counter near 2^64 is slow, not unsafe.
const fuzzReplayBound = 1 << 20

// FuzzResume feeds arbitrary bytes down the on-disk checkpoint path —
// DecodeCheckpoint, Resume, Run — seeded with real snapshots of two golden
// scenarios (shared and per-edge queues, faults and retries). A checkpoint
// file crosses a trust boundary: every input must end in an error or a
// completed run, never a panic.
func FuzzResume(f *testing.F) {
	d := goldenDevices(f)[0]
	var cfgs []sim.Config
	for _, name := range []string{"faults-retry", "wrr"} {
		cfg := goldenScenarios(f, d, 1)[name]
		_, cks := captureCheckpoints(f, cfg, 1000)
		for _, b := range cks[:min(3, len(cks))] {
			f.Add(b)
		}
		// A corrupt snapshot may schedule far more work than the
		// original run; the budget keeps every input fast.
		cfg.MaxEvents = 1 << 16
		cfgs = append(cfgs, cfg)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, err := sim.DecodeCheckpoint(b)
		if err != nil {
			return
		}
		if ck.RNGDraws > fuzzReplayBound || ck.GenPackets > fuzzReplayBound {
			t.Skip("stream positions beyond the replay bound")
		}
		for _, cfg := range cfgs {
			s, err := sim.Resume(cfg, ck)
			if err != nil {
				continue
			}
			_, _ = s.Run()
		}
	})
}
