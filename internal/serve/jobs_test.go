package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitReady polls /readyz until the server reports ready.
func waitReady(t *testing.T, client *http.Client, url string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("server never became ready")
}

func submitJob(t *testing.T, client *http.Client, url, kind, request string) (int, JobView) {
	t.Helper()
	body := fmt.Sprintf(`{"kind": %q, "request": %s}`, kind, request)
	resp, out := post(t, client, url+"/v1/jobs", body)
	var v JobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatalf("decoding job view: %v (%s)", err, out)
		}
	}
	return resp.StatusCode, v
}

// pollJob waits for the job to reach a terminal state.
func pollJob(t *testing.T, client *http.Client, url, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, out)
		}
		var v JobView
		if err := json.Unmarshal(out, &v); err != nil {
			t.Fatal(err)
		}
		switch v.State {
		case "succeeded", "failed", "cancelled":
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("job never reached a terminal state")
	return JobView{}
}

const simulateReq = `{"spec": ` + sampleSpec + `, "duration": 0.02, "seed": 7}`

func TestJobSubmitPollEstimate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	waitReady(t, ts.Client(), ts.URL)

	code, v := submitJob(t, ts.Client(), ts.URL, "estimate", estimateBody(sampleSpec))
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if v.ID == "" || v.Kind != "estimate" {
		t.Fatalf("job view: %+v", v)
	}
	done := pollJob(t, ts.Client(), ts.URL, v.ID)
	if done.State != "succeeded" || done.Attempts != 1 {
		t.Fatalf("job: %+v", done)
	}
	var pt PointResult
	if err := json.Unmarshal(done.Result, &pt); err != nil {
		t.Fatal(err)
	}
	if pt.Throughput <= 0 {
		t.Fatalf("implausible async estimate: %+v", pt)
	}
}

// An async job's result is byte for byte the body the synchronous
// endpoint answers for the same request, for every kind.
func TestJobMatchesSyncEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{JobCheckpointEvery: 5000})
	waitReady(t, ts.Client(), ts.URL)

	for _, c := range []struct{ kind, req string }{
		{"estimate", estimateBody(sampleSpec)},
		{"optimize", `{"spec": ` + sampleSpec + `, "goal": "latency", "knobs": [{"vertex": "cores", "param": "parallelism", "lo": 1, "hi": 8}]}`},
		{"simulate", simulateReq},
	} {
		t.Run(c.kind, func(t *testing.T) {
			resp, syncBody := post(t, ts.Client(), ts.URL+"/v1/"+c.kind, c.req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sync %s: %d %s", c.kind, resp.StatusCode, syncBody)
			}
			code, v := submitJob(t, ts.Client(), ts.URL, c.kind, c.req)
			if code != http.StatusAccepted {
				t.Fatalf("submit status %d", code)
			}
			if done := pollJob(t, ts.Client(), ts.URL, v.ID); done.State != "succeeded" {
				t.Fatalf("job failed: %+v", done)
			}
			j, _ := s.jobs.Get(v.ID)
			if !bytes.Equal(j.Result, syncBody) {
				t.Fatalf("job result differs from the synchronous body:\n job %q\nsync %q", j.Result, syncBody)
			}
		})
	}
}

// A synchronous simulation is not a job attempt: even on a server with a
// jobs directory and a checkpoint every event, it writes no checkpoint
// file and publishes no progress. A synchronous run taken for an attempt
// would run under its cache key, so the test watches the feed of a job
// with that id (a quick estimate job, which saves no checkpoints).
func TestSyncSimulateIsNoJobAttempt(t *testing.T) {
	dir := t.TempDir()
	// Long enough to pass the simulator's first progress poll (1024 events).
	const req = `{"spec": ` + sampleSpec + `, "duration": 0.005, "seed": 3}`
	s, ts := newTestServer(t, Config{JobsDir: dir, JobCheckpointEvery: 1, CacheEntries: -1})
	waitReady(t, ts.Client(), ts.URL)

	p, err := s.prepareSimulate([]byte(req))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.jobs.Submit("estimate", p.key, []byte(estimateBody(sampleSpec))); err != nil {
		t.Fatal(err)
	}
	if done := pollJob(t, ts.Client(), ts.URL, p.key); done.State != "succeeded" {
		t.Fatalf("job failed: %+v", done)
	}
	sub, _, ok := s.jobs.Subscribe(p.key, 0)
	if !ok {
		t.Fatal("job vanished")
	}
	defer sub.Close()

	if resp, out := post(t, ts.Client(), ts.URL+"/v1/simulate", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("sync simulate: %d %s", resp.StatusCode, out)
	}
	if ckpts, _ := filepath.Glob(filepath.Join(dir, "ckpt-*")); len(ckpts) != 0 {
		t.Fatalf("synchronous simulation wrote checkpoints: %v", ckpts)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if e, ok, _ := sub.Next(ctx); ok {
		t.Fatalf("synchronous simulation published a job event: %+v", e)
	}
}

// Acceptance criterion: N concurrent submissions of an identical spec
// create one job and exactly one evaluation. Runs under -race in CI.
func TestJobCoalescingSingleEvaluation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	waitReady(t, ts.Client(), ts.URL)

	const n = 24
	var wg sync.WaitGroup
	codes := make([]int, n)
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, v := submitJob(t, ts.Client(), ts.URL, "simulate", simulateReq)
			codes[i], ids[i] = code, v.ID
		}(i)
	}
	wg.Wait()

	accepted := 0
	for i := 0; i < n; i++ {
		switch codes[i] {
		case http.StatusAccepted:
			accepted++
		case http.StatusOK: // coalesced
		default:
			t.Fatalf("submission %d: status %d", i, codes[i])
		}
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got a different job id", i)
		}
	}
	if accepted != 1 {
		t.Fatalf("%d submissions created jobs, want exactly 1", accepted)
	}
	done := pollJob(t, ts.Client(), ts.URL, ids[0])
	if done.State != "succeeded" {
		t.Fatalf("job: %+v", done)
	}
	if got := s.jobs.Evaluations(); got != 1 {
		t.Fatalf("%v evaluations for %d identical submissions, want 1", got, n)
	}
	if done.Coalesced != n-1 {
		t.Fatalf("Coalesced = %d, want %d", done.Coalesced, n-1)
	}
}

func TestJobCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{JobCheckpointEvery: 1})
	waitReady(t, ts.Client(), ts.URL)

	// A long simulation we cancel mid-flight.
	long := `{"spec": ` + sampleSpec + `, "duration": 60, "seed": 1}`
	code, v := submitJob(t, ts.Client(), ts.URL, "simulate", long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: %d", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	done := pollJob(t, ts.Client(), ts.URL, v.ID)
	if done.State != "cancelled" {
		t.Fatalf("state %q after cancel", done.State)
	}
}

func TestJobValidationAtSubmit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	waitReady(t, ts.Client(), ts.URL)

	for name, body := range map[string]string{
		"unknown kind": `{"kind": "transmogrify", "request": {}}`,
		"bad spec":     `{"kind": "estimate", "request": {"spec": {"name": "x"}}}`,
		"not json":     `{{{`,
	} {
		resp, out := post(t, ts.Client(), ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", name, resp.StatusCode, out)
		}
	}
	resp, _ := ts.Client().Get(ts.URL + "/v1/jobs/0000000000000000")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestJobListing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	waitReady(t, ts.Client(), ts.URL)

	_, v := submitJob(t, ts.Client(), ts.URL, "estimate", estimateBody(sampleSpec))
	pollJob(t, ts.Client(), ts.URL, v.ID)
	resp, out := get(t, ts.Client(), ts.URL+"/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d", resp.StatusCode)
	}
	var list []JobView
	if err := json.Unmarshal(out, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != v.ID {
		t.Fatalf("listing: %+v", list)
	}
	if list[0].Result != nil {
		t.Fatal("listing should omit result payloads")
	}
}

// Jobs submitted before a restart are visible — with results — after a
// new server replays the same journal.
func TestJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{JobsDir: dir})
	waitReady(t, ts1.Client(), ts1.URL)
	_, v := submitJob(t, ts1.Client(), ts1.URL, "estimate", estimateBody(sampleSpec))
	done := pollJob(t, ts1.Client(), ts1.URL, v.ID)
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, Config{JobsDir: dir})
	waitReady(t, ts2.Client(), ts2.URL)
	resp, out := get(t, ts2.Client(), ts2.URL+"/v1/jobs/"+v.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after restart: %d %s", resp.StatusCode, out)
	}
	var v2 JobView
	if err := json.Unmarshal(out, &v2); err != nil {
		t.Fatal(err)
	}
	if v2.State != "succeeded" || !bytes.Equal(v2.Result, done.Result) {
		t.Fatalf("replayed job lost its result: %+v", v2)
	}
}

// An async simulate job that sets the deprecated "shards" field still
// checkpoints, and a successor over the same JobsDir resumes the
// interrupted attempt from that checkpoint instead of from t=0.
func TestShardsJobCheckpointsAndResumes(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{JobsDir: dir, JobCheckpointEvery: 50000}
	req := `{"spec": ` + sampleSpec + `, "duration": 2.0, "seed": 5, "shards": 2}`

	s1, ts1 := newTestServer(t, cfg)
	waitReady(t, ts1.Client(), ts1.URL)
	code, v := submitJob(t, ts1.Client(), ts1.URL, "simulate", req)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitForCheckpoint(t, dir, v.ID)
	ts1.Close()
	s1.Close()

	_, ts2 := newTestServer(t, cfg)
	waitReady(t, ts2.Client(), ts2.URL)
	done := pollJob(t, ts2.Client(), ts2.URL, v.ID)
	if done.State != "succeeded" {
		t.Fatalf("job after restart: %+v", done)
	}
	if !done.Resumed {
		t.Fatal("retried attempt did not resume from the saved checkpoint")
	}
}

func TestReadyzDistinctFromHealthz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	waitReady(t, ts.Client(), ts.URL)

	resp, _ := get(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	// Drain flips readiness but not liveness, and job traffic is refused.
	s.draining.Store(true)
	resp, _ = get(t, ts.Client(), ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d, want 503", resp.StatusCode)
	}
	resp, _ = get(t, ts.Client(), ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d, want 200", resp.StatusCode)
	}
	code, _ := submitJob(t, ts.Client(), ts.URL, "estimate", estimateBody(sampleSpec))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %d, want 503", code)
	}
	s.draining.Store(false)
	resp, _ = get(t, ts.Client(), ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after drain flag cleared: %d", resp.StatusCode)
	}
}

func TestReadyzDuringReplay(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Wait out the startup goroutine, then force the pre-replay window
	// back deterministically — nothing will flip the flag again.
	waitReady(t, ts.Client(), ts.URL)
	s.jobsReady.Store(false)
	resp, _ := get(t, ts.Client(), ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before replay: %d, want 503", resp.StatusCode)
	}
	code, _ := submitJob(t, ts.Client(), ts.URL, "estimate", estimateBody(sampleSpec))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("submit before replay: %d, want 503", code)
	}
}

// Oversized bodies are rejected with 413 on both the synchronous and the
// job endpoints.
func TestOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 512})
	waitReady(t, ts.Client(), ts.URL)
	big := `{"spec": {"pad": "` + strings.Repeat("x", 2048) + `"}}`
	resp, _ := post(t, ts.Client(), ts.URL+"/v1/estimate", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("sync: %d, want 413", resp.StatusCode)
	}
	resp, _ = post(t, ts.Client(), ts.URL+"/v1/jobs", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("jobs: %d, want 413", resp.StatusCode)
	}
}

func get(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}
