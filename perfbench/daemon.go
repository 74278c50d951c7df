package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"

	"lognic/internal/obs"
)

// daemonFlags are the lognic-serve flags every workload runs with. Two
// workers match the closed loop's two connections, so no request ever
// queues for a worker.
var daemonFlags = []string{"-addr", "127.0.0.1:0", "-workers", "2", "-cache", fmt.Sprint(cacheEntries)}

// daemon is one running lognic-serve process.
type daemon struct {
	cmd    *exec.Cmd
	out    *addrWatcher
	errb   bytes.Buffer
	exited chan struct{} // closed once cmd.Wait returns
	base   string        // http://host:port
}

// addrWatcher collects the daemon's stdout and reports the listen address
// from its "listening on http://..." banner.
type addrWatcher struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	found bool
	addr  chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf.Write(p)
	if !w.found {
		const banner = "listening on http://"
		s := w.buf.String()
		if i := strings.Index(s, banner); i >= 0 {
			rest := s[i+len(banner):]
			if j := strings.IndexAny(rest, " \n"); j >= 0 {
				w.found = true
				w.addr <- rest[:j]
			}
		}
	}
	return len(p), nil
}

// startDaemon execs lognic-serve and waits for its first 200 on /readyz,
// returning the time from exec to ready.
func startDaemon(path string) (*daemon, time.Duration, error) {
	d := &daemon{out: &addrWatcher{addr: make(chan string, 1)}, exited: make(chan struct{})}
	d.cmd = exec.Command(path, daemonFlags...)
	d.cmd.Stdout = d.out
	d.cmd.Stderr = &d.errb
	// Should the benchmark itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting daemon: %w", err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.exited)
	}()
	fail := func(err error) (*daemon, time.Duration, error) {
		d.stop()
		return nil, 0, fmt.Errorf("%w (daemon stderr: %q)", err, d.errb.String())
	}
	select {
	case addr := <-d.out.addr:
		d.base = "http://" + addr
	case <-d.exited:
		return fail(errors.New("daemon exited before listening"))
	case <-time.After(10 * time.Second):
		return fail(errors.New("daemon printed no listen address within 10s"))
	}
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := t0.Add(10 * time.Second)
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			return fail(errors.New("daemon not ready within 10s"))
		}
		time.Sleep(200 * time.Microsecond)
	}
	return d, time.Since(t0), nil
}

// pid is the daemon's process id.
func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM (SIGKILL after 10s) and waits for it
// to exit.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// counters is one scrape of the daemon's /metrics, keyed by family name
// (series of one family summed).
type counters map[string]float64

// scrape reads the daemon's metrics in JSON form.
func scrape(client *http.Client, base string) (counters, error) {
	resp, err := client.Get(base + "/metrics?format=json")
	if err != nil {
		return nil, fmt.Errorf("scraping metrics: %w", err)
	}
	defer resp.Body.Close()
	var snaps []obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snaps); err != nil {
		return nil, fmt.Errorf("decoding metrics: %w", err)
	}
	c := counters{}
	for _, s := range snaps {
		c[s.Name] += s.Value
	}
	return c, nil
}
