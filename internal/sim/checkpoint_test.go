package sim_test

// Checkpoint/resume correctness: a run interrupted at an arbitrary
// checkpoint and resumed from the serialized snapshot must produce a
// Result byte-identical (golden digest) to the same run uninterrupted.
// The scenarios reuse the golden suite's configs, so every scheduling
// path — shared and per-edge queues, all routing policies, faults,
// retries, bursty flows, deterministic service — is exercised.

import (
	"errors"
	"strings"
	"testing"

	"lognic/internal/sim"
	"lognic/internal/simtest"
)

// captureCheckpoints runs cfg with a sink collecting an encoded snapshot
// every `every` events, returning the result and the serialized
// checkpoints in capture order.
func captureCheckpoints(t *testing.T, cfg sim.Config, every uint64) (sim.Result, [][]byte) {
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
	// every mid-run snapshot, packets in transfer from an upstream vertex.
	var encoded []byte
	restore, arrive := -1, -1
	for _, b := range cks {
		ck, err := sim.DecodeCheckpoint(b)
		if err != nil {
			t.Fatal(err)
		}
		restore, arrive = -1, -1
		for i, e := range ck.Events {
			switch {
			case e.Link != "":
				restore = i
			case e.From != "":
				arrive = i
			}
		}
		if restore >= 0 && arrive >= 0 {
			encoded = b
			break
		}
	}
	if encoded == nil {
		t.Fatal("no checkpoint holds both a pending link restore and an in-transfer arrival")
	}
	for _, tc := range []struct {
		name, want string
		mutate     func(*sim.Checkpoint)
	}{
		{"unknown from", "unknown vertex", func(c *sim.Checkpoint) { c.Events[arrive].From = "no-such-vertex" }},
		{"unknown link", "unknown link", func(c *sim.Checkpoint) { c.Events[restore].Link = "no-such-link" }},
		{"restore index past schedule", "out of range", func(c *sim.Checkpoint) { c.Events[restore].Idx = int32(len(cfg.Faults)) }},
		{"negative restore index", "out of range", func(c *sim.Checkpoint) { c.Events[restore].Idx = -1 }},
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
