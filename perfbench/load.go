package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"lognic/internal/serve"
)

// tracker follows the responses to every corpus item: the first body the
// item got, and how many responses matched that body.
type tracker struct {
	first []atomic.Pointer[[]byte]
	ok    []atomic.Int64
}

func newTracker(n int) *tracker {
	return &tracker{first: make([]atomic.Pointer[[]byte], n), ok: make([]atomic.Int64, n)}
}

// check records one 200 response for item i, reporting whether it matches
// the item's first response. body is copied when kept.
func (t *tracker) check(i int, body []byte) bool {
	p := t.first[i].Load()
	if p == nil {
		b := bytes.Clone(body)
		if t.first[i].CompareAndSwap(nil, &b) {
			t.ok[i].Add(1)
			return true
		}
		p = t.first[i].Load()
	}
	if !bytes.Equal(*p, body) {
		return false
	}
	t.ok[i].Add(1)
	return true
}

// answered lists the items that got at least one response.
func (t *tracker) answered() []int {
	var out []int
	for i := range t.first {
		if t.first[i].Load() != nil {
			out = append(out, i)
		}
	}
	return out
}

// verify compares each answered item's first response with its reference
// body (ref[i] for item i). Every response that matched a wrong first
// response is wrong too, so it returns how many responses the reference
// turns into failures, and which items were wrong.
func (t *tracker) verify(ref map[int][]byte) (failed int64, wrong []int) {
	for i, want := range ref {
		if p := t.first[i].Load(); p != nil && !bytes.Equal(*p, want) {
			failed += t.ok[i].Load()
			wrong = append(wrong, i)
		}
	}
	return failed, wrong
}

// loadResult is one phase of the closed loop.
type loadResult struct {
	attempted, failed int64
	// lat holds every completed request's latency in seconds, from send
	// until the whole body was read.
	lat sample
	// elapsed runs from the phase start until the last request returned.
	elapsed time.Duration
}

// client is one closed-loop connection: a keep-alive transport capped at
// a single connection, so the loop holds exactly as many connections as
// it has clients.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// send posts one corpus item and checks its response, returning whether
// it was a correct 200.
func send(c *http.Client, base string, w workload, i int, buf *bytes.Buffer, tr *tracker) bool {
	it := w.items[i]
	req, err := http.NewRequest(http.MethodPost, base+"/v1/"+it.endpoint, bytes.NewReader(it.body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return false
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK && tr.check(i, buf.Bytes())
}

// runLoad drives the daemon in a closed loop, one goroutine per client,
// for d. Each goroutine sends its next request only once the previous
// reply is read. Requests take corpus items in order from the shared
// cursor, so the corpus is cycled across phases.
func runLoad(clients []*http.Client, base string, w workload, cursor *atomic.Int64, tr *tracker, d time.Duration) loadResult {
	type part struct {
		attempted, failed int64
		lat               sample
	}
	parts := make([]part, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for k := range clients {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			p := &parts[k]
			var buf bytes.Buffer
			for time.Since(start) < d {
				i := int((cursor.Add(1) - 1) % int64(len(w.items)))
				t0 := time.Now()
				ok := send(clients[k], base, w, i, &buf, tr)
				p.lat = append(p.lat, time.Since(t0).Seconds())
				p.attempted++
				if !ok {
					p.failed++
				}
			}
		}(k)
	}
	wg.Wait()
	res := loadResult{elapsed: time.Since(start)}
	for _, p := range parts {
		res.attempted += p.attempted
		res.failed += p.failed
		res.lat = append(res.lat, p.lat...)
	}
	return res
}

// references evaluates the given items in-process on a server with its
// cache disabled, two at a time, returning each item's response body.
func references(w workload, items []int) (map[int][]byte, error) {
	srv := serve.NewServer(serve.Config{CacheEntries: -1, Workers: 2})
	defer srv.Close()
	h := srv.Handler()
	out := make([][]byte, len(items))
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(items); k += len(errs) {
				it := w.items[items[k]]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+it.endpoint, bytes.NewReader(it.body)))
				if rec.Code != http.StatusOK {
					errs[g] = fmt.Errorf("reference for item %d: status %d: %s", items[k], rec.Code, rec.Body.Bytes())
					return
				}
				out[k] = rec.Body.Bytes()
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	ref := make(map[int][]byte, len(items))
	for k, i := range items {
		ref[i] = out[k]
	}
	return ref, nil
}
