package jobs

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lognic/internal/obs"
)

// --- journal ---

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jr, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(records))
	}
	want := [][]byte{[]byte(`{"a":1}`), []byte(``), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, r := range want {
		if err := jr.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()

	jr2, got, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jr2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// A torn tail — the crash signature — is truncated on open and the
// journal accepts new appends at the clean boundary.
func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jr, _, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	jr.Append([]byte("first"))
	jr.Append([]byte("second"))
	jr.Close()

	// Simulate kill -9 mid-append: a header promising more bytes than exist.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	var head [8]byte
	binary.LittleEndian.PutUint32(head[0:4], 100)
	f.Write(head[:])
	f.Write([]byte("torn"))
	f.Close()

	jr2, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 || string(records[0]) != "first" || string(records[1]) != "second" {
		t.Fatalf("recovered %q", records)
	}
	if err := jr2.Append([]byte("third")); err != nil {
		t.Fatal(err)
	}
	jr2.Close()

	_, records, err = OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || string(records[2]) != "third" {
		t.Fatalf("after truncate+append recovered %q", records)
	}
}

func TestJournalBitFlipStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.wal")
	jr, _, _ := OpenJournal(path)
	jr.Append([]byte("good"))
	jr.Append([]byte("evil"))
	jr.Append([]byte("after"))
	jr.Close()

	b, _ := os.ReadFile(path)
	b[8+4+8+2] ^= 0x01 // flip a bit inside the second payload
	os.WriteFile(path, b, 0o644)

	_, records, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 1 || string(records[0]) != "good" {
		t.Fatalf("recovered %q, want only the pre-corruption record", records)
	}
}

func TestJournalRecordTooLarge(t *testing.T) {
	jr, _, err := OpenJournal(filepath.Join(t.TempDir(), "j.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	if err := jr.Append(make([]byte, maxRecordLen+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
}

// --- manager ---

// newTestManager builds a started manager with a tiny backoff and the
// given evaluator.
func newTestManager(t *testing.T, dir string, eval EvalFunc) *Manager {
	t.Helper()
	m, err := NewManager(Config{
		Dir:         dir,
		Workers:     2,
		MaxAttempts: 3,
		BackoffBase: 2 * time.Millisecond,
		BackoffMax:  10 * time.Millisecond,
		Evaluate:    eval,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// waitState polls until the job reaches st or the deadline passes.
func waitState(t *testing.T, m *Manager, id string, st State) Job {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if j, ok := m.Get(id); ok && j.State == st {
			return j
		}
		time.Sleep(time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s stuck in %s, want %s (attempts=%d err=%q)", id, j.State, st, j.Attempts, j.Error)
	return Job{}
}

func TestSubmitRunsToSuccess(t *testing.T) {
	m := newTestManager(t, t.TempDir(), func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		return append([]byte("ok:"), body...), nil
	})
	snap, isNew, err := m.Submit("estimate", "aabbccdd", []byte("spec"))
	if err != nil || !isNew {
		t.Fatalf("Submit = %+v, %v, %v", snap, isNew, err)
	}
	j := waitState(t, m, "aabbccdd", StateSucceeded)
	if string(j.Result) != "ok:spec" {
		t.Fatalf("result %q", j.Result)
	}
	if j.Attempts != 1 {
		t.Fatalf("attempts = %d", j.Attempts)
	}
}

// N concurrent identical submissions run exactly one evaluation. Run
// under -race in CI (the acceptance criterion).
func TestCoalescingSingleEvaluation(t *testing.T) {
	var evals atomic.Int64
	release := make(chan struct{})
	m := newTestManager(t, "", func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		evals.Add(1)
		<-release
		return []byte("r"), nil
	})
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := m.Submit("simulate", "deadbeef01", []byte("samespec")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	close(release)
	j := waitState(t, m, "deadbeef01", StateSucceeded)
	if got := evals.Load(); got != 1 {
		t.Fatalf("%d evaluations for %d identical submissions, want 1", got, n)
	}
	if m.Evaluations() != 1 {
		t.Fatalf("Evaluations() = %v, want 1", m.Evaluations())
	}
	if j.Coalesced != n-1 {
		t.Fatalf("Coalesced = %d, want %d", j.Coalesced, n-1)
	}
}

func TestRetriesWithBudget(t *testing.T) {
	var calls atomic.Int64
	m := newTestManager(t, t.TempDir(), func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		if calls.Add(1) < 3 {
			return nil, errors.New("transient")
		}
		return []byte("eventually"), nil
	})
	m.Submit("optimize", "cafe0001", nil)
	j := waitState(t, m, "cafe0001", StateSucceeded)
	if j.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", j.Attempts)
	}
	if string(j.Result) != "eventually" {
		t.Fatalf("result %q", j.Result)
	}
}

func TestBudgetExhaustionFails(t *testing.T) {
	m := newTestManager(t, t.TempDir(), func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		return nil, errors.New("permanent")
	})
	m.Submit("estimate", "cafe0002", nil)
	j := waitState(t, m, "cafe0002", StateFailed)
	if j.Attempts != 3 || j.Error != "permanent" {
		t.Fatalf("attempts=%d err=%q", j.Attempts, j.Error)
	}

	// A fresh submission of the same id reopens the failed job.
	_, isNew, err := m.Submit("estimate", "cafe0002", nil)
	if err != nil || !isNew {
		t.Fatalf("resubmit = %v, %v; want a fresh job", isNew, err)
	}
	waitState(t, m, "cafe0002", StateFailed)
}

func TestCancelRunning(t *testing.T) {
	started := make(chan struct{})
	m := newTestManager(t, t.TempDir(), func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	m.Submit("simulate", "cafe0003", nil)
	<-started
	if _, ok := m.Cancel("cafe0003"); !ok {
		t.Fatal("Cancel: job not found")
	}
	j := waitState(t, m, "cafe0003", StateCancelled)
	// A cancelled attempt must not be retried.
	time.Sleep(30 * time.Millisecond)
	if j2, _ := m.Get("cafe0003"); j2.State != StateCancelled || j2.Attempts != j.Attempts {
		t.Fatalf("cancelled job moved on: %+v", j2)
	}
}

func TestCancelQueuedBeforeRun(t *testing.T) {
	gate := make(chan struct{})
	m := newTestManager(t, "", func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		<-gate
		return []byte("x"), nil
	})
	// Fill both workers, then queue a third job and cancel it while queued.
	m.Submit("estimate", "cafe0010", nil)
	m.Submit("estimate", "cafe0011", nil)
	time.Sleep(5 * time.Millisecond)
	m.Submit("estimate", "cafe0012", nil)
	if j, ok := m.Cancel("cafe0012"); !ok || j.State != StateCancelled {
		t.Fatalf("cancel queued: %+v ok=%v", j, ok)
	}
	close(gate)
	waitState(t, m, "cafe0010", StateSucceeded)
	waitState(t, m, "cafe0011", StateSucceeded)
	if j, _ := m.Get("cafe0012"); j.State != StateCancelled || j.Attempts != 0 {
		t.Fatalf("cancelled-queued job ran: %+v", j)
	}
}

// Restarting a manager over the same dir replays the journal: finished
// jobs keep their results, unfinished jobs re-run.
func TestReplayRebuildsState(t *testing.T) {
	dir := t.TempDir()
	block := make(chan struct{})
	m1 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		if kind == "slow" {
			select {
			case <-block:
			case <-ctx.Done(): // shutdown: leave unfinished
				return nil, ctx.Err()
			}
		}
		return append([]byte("r:"), body...), nil
	})
	m1.Submit("estimate", "aaaa1111", []byte("done-before-crash"))
	waitState(t, m1, "aaaa1111", StateSucceeded)
	m1.Submit("slow", "bbbb2222", []byte("interrupted"))
	waitState(t, m1, "bbbb2222", StateRunning)
	m1.Close() // simulates the crash: the slow job never finished

	m2 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		return append([]byte("r:"), body...), nil
	})
	j, ok := m2.Get("aaaa1111")
	if !ok || j.State != StateSucceeded || string(j.Result) != "r:done-before-crash" {
		t.Fatalf("finished job after replay: %+v ok=%v", j, ok)
	}
	j2 := waitState(t, m2, "bbbb2222", StateSucceeded)
	if string(j2.Result) != "r:interrupted" {
		t.Fatalf("interrupted job re-ran to %q", j2.Result)
	}
	// The interrupted attempt did not count against the budget.
	if j2.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", j2.Attempts)
	}
}

// Attempt records persist the retry budget across restarts.
func TestReplayPreservesAttemptBudget(t *testing.T) {
	dir := t.TempDir()
	firstFailed := make(chan struct{}, 1)
	m1 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		select {
		case firstFailed <- struct{}{}:
			return nil, errors.New("boom")
		default:
			<-ctx.Done() // park until shutdown so no more attempts land
			return nil, ctx.Err()
		}
	})
	m1.Submit("estimate", "cccc3333", nil)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if j, _ := m1.Get("cccc3333"); j.Attempts >= 1 && j.Error == "boom" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first failing attempt never recorded")
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()

	m2 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		return nil, errors.New("still boom")
	})
	j := waitState(t, m2, "cccc3333", StateFailed)
	// One attempt journaled before the restart + the remaining budget.
	if j.Attempts != 3 {
		t.Fatalf("attempts after restart = %d, want 3", j.Attempts)
	}
}

// A journal failure degrades to memory-only: submissions keep working and
// the gauge reports the condition.
func TestDegradedModeKeepsServing(t *testing.T) {
	dir := t.TempDir()
	m := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		return []byte("ok"), nil
	})
	// Sabotage the journal file descriptor: close it out from under the
	// manager so the next append fails.
	m.mu.Lock()
	m.journal.f.Close()
	m.mu.Unlock()

	if _, _, err := m.Submit("estimate", "dddd4444", nil); err != nil {
		t.Fatalf("submit while degrading: %v", err)
	}
	waitState(t, m, "dddd4444", StateSucceeded)
	if !m.Degraded() {
		t.Fatal("manager not degraded after journal failure")
	}
	if got := seriesValue(m.cfg.Registry, "lognic_jobs_degraded", nil); got != 1 {
		t.Fatalf("lognic_jobs_degraded gauge = %v, want 1", got)
	}
	// Still accepting work.
	m.Submit("estimate", "eeee5555", nil)
	waitState(t, m, "eeee5555", StateSucceeded)
}

// Memory-only checkpoints flow between attempts of the same process.
func TestCheckpointStoreMemoryFallback(t *testing.T) {
	var sawCkpt atomic.Bool
	m := newTestManager(t, "", func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		if b, ok := ck.Load(); ok {
			sawCkpt.Store(string(b) == "progress-marker")
			return []byte("resumed"), nil
		}
		ck.Save([]byte("progress-marker"))
		return nil, errors.New("interrupted")
	})
	m.Submit("simulate", "ffff6666", nil)
	j := waitState(t, m, "ffff6666", StateSucceeded)
	if !sawCkpt.Load() {
		t.Fatal("retry attempt did not see the saved checkpoint")
	}
	if string(j.Result) != "resumed" {
		t.Fatalf("result %q", j.Result)
	}
}

// On-disk checkpoints survive a manager restart and are deleted when the
// job completes.
func TestCheckpointStoreDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		ck.Save([]byte("snap-1"))
		<-ctx.Done() // park until shutdown, like a crash mid-simulation
		return nil, ctx.Err()
	})
	m1.Submit("simulate", "abcd7777", nil)
	ckPath := filepath.Join(dir, ckptName("abcd7777"))
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(ckPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint file never written")
		}
		time.Sleep(time.Millisecond)
	}
	m1.Close()

	var loaded atomic.Value
	m2 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		b, _ := ck.Load()
		loaded.Store(string(b))
		return []byte("done"), nil
	})
	waitState(t, m2, "abcd7777", StateSucceeded)
	if loaded.Load() != "snap-1" {
		t.Fatalf("restarted attempt loaded %q, want snap-1", loaded.Load())
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint not deleted after success: %v", err)
	}
}

// A checkpoint too large for one frame stays in memory for its job, but
// the disk is healthy, so the journal stays open for every other job.
func TestOversizedCheckpointKeepsJournal(t *testing.T) {
	dir := t.TempDir()
	big := make([]byte, maxRecordLen+1)
	big[0], big[len(big)-1] = 'a', 'z'
	loaded := make(chan bool, 1)
	m1 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		if kind == "simulate" {
			ck.Save(big)
			b, ok := ck.Load()
			loaded <- ok && bytes.Equal(b, big)
		}
		return []byte("r:" + kind), nil
	})
	m1.Submit("simulate", "abcd0001", nil)
	if !<-loaded {
		t.Fatal("Load did not return the in-memory copy of the oversized checkpoint")
	}
	waitState(t, m1, "abcd0001", StateSucceeded)
	if m1.Degraded() {
		t.Fatal("an oversized checkpoint degraded the manager to memory-only")
	}
	if got := m1.jErrors.Value(); got != 1 {
		t.Fatalf("lognic_jobs_journal_errors_total = %v, want 1", got)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptName("abcd0001"))); !os.IsNotExist(err) {
		t.Fatalf("oversized checkpoint reached disk: %v", err)
	}
	m1.Submit("estimate", "abcd0002", nil)
	waitState(t, m1, "abcd0002", StateSucceeded)
	m1.Close()

	m2 := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		return []byte("rerun"), nil
	})
	j, ok := m2.Get("abcd0002")
	if !ok || j.State != StateSucceeded || string(j.Result) != "r:estimate" {
		t.Fatalf("submit after the oversized checkpoint did not survive a restart: %+v ok=%v", j, ok)
	}
}

func TestBackoffCappedAndJittered(t *testing.T) {
	m, err := NewManager(Config{
		Evaluate:    func(context.Context, string, string, []byte, CheckpointStore) ([]byte, error) { return nil, nil },
		BackoffBase: 100 * time.Millisecond,
		BackoffMax:  400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for attempts, max := range map[int]time.Duration{1: 100 * time.Millisecond, 2: 200 * time.Millisecond, 3: 400 * time.Millisecond, 10: 400 * time.Millisecond} {
		for i := 0; i < 50; i++ {
			d := m.backoffLocked(attempts)
			if d < max/2 || d > max {
				t.Fatalf("backoff(%d) = %v, want [%v, %v]", attempts, d, max/2, max)
			}
		}
	}
}

func TestManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatal("nil Evaluate accepted")
	}
	m, _ := NewManager(Config{Evaluate: func(context.Context, string, string, []byte, CheckpointStore) ([]byte, error) { return nil, nil }})
	if _, _, err := m.Submit("", "id", nil); err == nil {
		t.Fatal("empty kind accepted")
	}
	if _, _, err := m.Submit("estimate", "", nil); err == nil {
		t.Fatal("empty id accepted")
	}
	m.Close()
	if _, _, err := m.Submit("estimate", "id1234", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

func TestCkptNameArmorsNonHexIDs(t *testing.T) {
	for _, id := range []string{"../../etc/passwd", "a b", "UPPER", "deadbeef"} {
		name := ckptName(id)
		if filepath.Base(name) != name || name == "ckpt-.bin" {
			t.Fatalf("ckptName(%q) = %q escapes or is empty", id, name)
		}
	}
	if ckptName("deadbeef") != "ckpt-deadbeef.bin" {
		t.Fatal("hex ids should map through unchanged")
	}
}

func TestManagerStartTwice(t *testing.T) {
	m, _ := NewManager(Config{Evaluate: func(context.Context, string, string, []byte, CheckpointStore) ([]byte, error) { return nil, nil }})
	defer m.Close()
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err == nil {
		t.Fatal("second Start accepted")
	}
}

func TestUnwritableDirDegradesNotFails(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("root ignores directory permissions")
	}
	parent := t.TempDir()
	if err := os.Chmod(parent, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(parent, 0o755)
	m, err := NewManager(Config{
		Dir: filepath.Join(parent, "jobs"),
		Evaluate: func(context.Context, string, string, []byte, CheckpointStore) ([]byte, error) {
			return []byte("ok"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if err := m.Start(); err != nil {
		t.Fatalf("Start should degrade, not fail: %v", err)
	}
	if !m.Degraded() {
		t.Fatal("not degraded")
	}
	m.Submit("estimate", "ab12cd34", nil)
	waitState(t, m, "ab12cd34", StateSucceeded)
}

func TestJobsListingOrder(t *testing.T) {
	m := newTestManager(t, "", func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		return nil, nil
	})
	for i := 0; i < 5; i++ {
		m.Submit("estimate", fmt.Sprintf("%08x", i), nil)
	}
	list := m.Jobs()
	if len(list) != 5 {
		t.Fatalf("len = %d", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i].Created.After(list[i-1].Created) {
			t.Fatal("jobs not newest-first")
		}
	}
}

// The lognic_jobs_state gauges read the job table when scraped: they
// follow jobs into running and out to succeeded, and a manager rebuilt
// from the journal reports the replayed states before any job runs.
func TestStateGaugesReadJobTable(t *testing.T) {
	dir := t.TempDir()
	release := make(chan struct{})
	m := newTestManager(t, dir, func(ctx context.Context, id, kind string, body []byte, ck CheckpointStore) ([]byte, error) {
		<-release
		return []byte("ok"), nil
	})
	state := func(m *Manager, st State) float64 {
		return seriesValue(m.cfg.Registry, "lognic_jobs_state", obs.Labels{"state": string(st)})
	}
	for _, id := range []string{"aaaa1111", "bbbb2222"} {
		if _, _, err := m.Submit("estimate", id, nil); err != nil {
			t.Fatal(err)
		}
		waitState(t, m, id, StateRunning)
	}
	if state(m, StateRunning) != 2 || state(m, StateQueued) != 0 || state(m, StateSucceeded) != 0 {
		t.Fatalf("state gauges running/queued/succeeded = %v/%v/%v, want 2/0/0",
			state(m, StateRunning), state(m, StateQueued), state(m, StateSucceeded))
	}
	close(release)
	waitState(t, m, "aaaa1111", StateSucceeded)
	waitState(t, m, "bbbb2222", StateSucceeded)
	if state(m, StateRunning) != 0 || state(m, StateSucceeded) != 2 {
		t.Fatalf("state gauges running/succeeded = %v/%v after release, want 0/2",
			state(m, StateRunning), state(m, StateSucceeded))
	}
	m.Close()

	m2 := newTestManager(t, dir, func(context.Context, string, string, []byte, CheckpointStore) ([]byte, error) {
		return nil, errors.New("replayed jobs must not run")
	})
	if got := state(m2, StateSucceeded); got != 2 {
		t.Fatalf("replayed manager reports %v succeeded jobs, want 2", got)
	}
	if got := seriesValue(m2.cfg.Registry, "lognic_jobs_degraded", nil); got != 0 {
		t.Fatalf("lognic_jobs_degraded = %v on a healthy manager, want 0", got)
	}
}

// seriesValue reads one series from a registry's exposition (-1 when
// absent).
func seriesValue(reg *obs.Registry, name string, labels obs.Labels) float64 {
	for _, snap := range reg.Gather() {
		if snap.Name == name && maps.Equal(snap.Labels, labels) {
			return snap.Value
		}
	}
	return -1
}
