package jobs

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReplayMatchesLive drives a manager through every journaled
// transition, then rebuilds a second manager from the same journal and
// checks that the restart reconstructs exactly what the live manager
// reported: a restart must rebuild the state that was accepted.
//
// Compared: ID, Kind, State, Attempts, Error, Result, Created, Finished —
// the fields the journal carries. Not compared, because they are not
// journaled and are process-local by design: Started, RetryAt, Coalesced
// and Resumed.
//
// One case is deliberately not driven: a job cancelled mid-attempt
// finishes live when its attempt unwinds, but on replay at the cancel
// record's time, so its Finished legitimately differs.
func TestReplayMatchesLive(t *testing.T) {
	dir := t.TempDir()
	var (
		mu     sync.Mutex
		calls  = map[string]int{}
		block  atomic.Bool
		blocks = make(chan struct{}, 1)
	)
	eval := func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		mu.Lock()
		calls[id]++
		n := calls[id]
		mu.Unlock()
		switch kind {
		case "flaky":
			if n == 1 {
				return nil, errors.New("transient")
			}
		case "bad":
			if block.Load() {
				blocks <- struct{}{}
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return nil, errors.New("permanent")
		}
		return append([]byte("result:"), body...), nil
	}
	live, err := NewManager(Config{
		Dir: dir, Workers: 1, MaxAttempts: 3,
		BackoffBase: time.Millisecond, BackoffMax: 2 * time.Millisecond,
		Evaluate: eval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)

	// submit → success on the first attempt.
	live.Submit("ok", "a0000001", []byte("a"))
	waitState(t, live, "a0000001", StateSucceeded)
	// submit → retry → success.
	live.Submit("flaky", "a0000002", []byte("b"))
	waitState(t, live, "a0000002", StateSucceeded)
	// submit → fail with the attempt budget exhausted.
	live.Submit("bad", "a0000003", []byte("c"))
	waitState(t, live, "a0000003", StateFailed)
	// Resubmission of the failed job, left queued: its attempt holds the
	// only worker until Close, which puts it back uncounted, as a crash
	// would.
	block.Store(true)
	if _, isNew, err := live.Submit("bad", "a0000003", []byte("c")); err != nil || !isNew {
		t.Fatalf("resubmit = %v, %v; want a fresh job", isNew, err)
	}
	<-blocks
	// Cancel of a queued job: the worker is busy, so it never starts.
	live.Submit("ok", "a0000004", []byte("d"))
	if j, ok := live.Cancel("a0000004"); !ok || j.State != StateCancelled {
		t.Fatalf("cancel queued: %+v ok=%v", j, ok)
	}
	live.Close()

	want := map[string]Job{}
	for _, j := range live.Jobs() {
		want[j.ID] = j
	}
	if j := want["a0000003"]; j.State != StateQueued || j.Attempts != 0 || !j.Finished.IsZero() {
		t.Fatalf("resubmitted job is not left queued: %+v", j)
	}

	// Rebuild from the journal before any worker runs.
	replayed, err := NewManager(Config{Dir: dir, Evaluate: eval})
	if err != nil {
		t.Fatal(err)
	}
	jr, records, err := OpenJournal(filepath.Join(dir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	replayed.mu.Lock()
	replayed.replayLocked(records)
	replayed.mu.Unlock()

	got := replayed.Jobs()
	if len(got) != len(want) {
		t.Fatalf("replay rebuilt %d jobs, live had %d", len(got), len(want))
	}
	for _, g := range got {
		w, ok := want[g.ID]
		switch {
		case !ok:
			t.Errorf("replay invented job %s", g.ID)
		case g.Kind != w.Kind || g.State != w.State || g.Attempts != w.Attempts || g.Error != w.Error:
			t.Errorf("job %s: replay kind=%s state=%s attempts=%d error=%q, live kind=%s state=%s attempts=%d error=%q",
				g.ID, g.Kind, g.State, g.Attempts, g.Error, w.Kind, w.State, w.Attempts, w.Error)
		case !bytes.Equal(g.Result, w.Result):
			t.Errorf("job %s: replay result %q, live %q", g.ID, g.Result, w.Result)
		case !g.Created.Equal(w.Created) || !g.Finished.Equal(w.Finished):
			t.Errorf("job %s: replay created=%v finished=%v, live created=%v finished=%v",
				g.ID, g.Created, g.Finished, w.Created, w.Finished)
		}
	}
}
