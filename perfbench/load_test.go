package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"lognic/internal/serve"
)

// corrupting wraps the daemon handler and flips a byte of the responses
// to one corpus item that bad selects (by how many times the item was
// answered before).
func corrupting(t *testing.T, target []byte, bad func(n int64) bool) (*httptest.Server, func()) {
	srv := serve.NewServer(serve.Config{Workers: 2, CacheEntries: cacheEntries})
	h := srv.Handler()
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.Error(err)
			return
		}
		rec := httptest.NewRecorder()
		r.Body = io.NopCloser(bytes.NewReader(body))
		h.ServeHTTP(rec, r)
		out := rec.Body.Bytes()
		if bytes.Equal(body, target) && bad(n.Add(1)-1) {
			out[len(out)/2] ^= 1
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(out)
	}))
	return ts, func() { ts.Close(); srv.Close() }
}

// drive runs the closed loop against ts and the correctness gate after
// it, returning the failures each found.
func drive(t *testing.T, ts *httptest.Server, w workload) (loopFailed, refFailed int64, wrong []int) {
	t.Helper()
	clients := []*http.Client{newClient(), newClient()}
	tr := newTracker(len(w.items))
	var cursor atomic.Int64
	res := runLoad(clients, ts.URL, w, &cursor, tr, 300*time.Millisecond)
	for _, c := range clients {
		c.CloseIdleConnections()
	}
	if res.attempted < int64(3*len(w.items)) {
		t.Fatalf("only %d requests in the loop; the corpus was not repeated", res.attempted)
	}
	refs, err := references(w, tr.answered())
	if err != nil {
		t.Fatal(err)
	}
	refFailed, wrong = tr.verify(refs)
	return res.failed, refFailed, wrong
}

func TestCleanRunHasNoFailures(t *testing.T) {
	w, err := buildWorkload("estimate-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	ts, done := corrupting(t, w.items[0].body, func(int64) bool { return false })
	defer done()
	if loop, ref, _ := drive(t, ts, w); loop != 0 || ref != 0 {
		t.Fatalf("clean daemon: %d loop failures, %d reference failures", loop, ref)
	}
}

func TestCorruptedRepeatCountsAsFailed(t *testing.T) {
	w, err := buildWorkload("estimate-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	// The second answer to item 0 differs from its first.
	ts, done := corrupting(t, w.items[0].body, func(n int64) bool { return n == 1 })
	defer done()
	if loop, ref, _ := drive(t, ts, w); loop != 1 || ref != 0 {
		t.Fatalf("one corrupted repeat: %d loop failures, %d reference failures; want 1 and 0", loop, ref)
	}
}

func TestConsistentlyCorruptedItemFailsTheReference(t *testing.T) {
	w, err := buildWorkload("estimate-hot", 1)
	if err != nil {
		t.Fatal(err)
	}
	// Every answer to item 0 is wrong the same way, so the repeats agree
	// with the first and only the reference can catch it.
	ts, done := corrupting(t, w.items[0].body, func(int64) bool { return true })
	defer done()
	loop, ref, wrong := drive(t, ts, w)
	if loop != 0 || ref < 3 || len(wrong) != 1 || wrong[0] != 0 {
		t.Fatalf("item 0 always corrupted: %d loop failures, %d reference failures, wrong items %v", loop, ref, wrong)
	}
}
