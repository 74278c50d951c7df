package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"lognic/internal/jobs"
)

// snapshotOf GETs a server's cache snapshot stream.
func snapshotOf(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/cache/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// A replica warm-started from a peer's snapshot must serve its first
// request for a warmed spec as a cache hit, byte-identical to the peer's
// cold evaluation — for every endpoint, via both a file and a URL source.
func TestWarmStartByteIdentical(t *testing.T) {
	_, donor := newTestServer(t, Config{})
	reqs := []struct{ path, body string }{
		{"/v1/estimate", estimateBody(sampleSpec)},
		{"/v1/optimize", `{"spec": ` + sampleSpec + `, "goal": "latency", "knobs": [{"vertex":"cores","param":"parallelism","lo":1,"hi":4}]}`},
		{"/v1/simulate", `{"spec": ` + sampleSpec + `, "duration": 0.002, "seed": 3}`},
	}
	cold := make([][]byte, len(reqs))
	for i, rq := range reqs {
		resp, body := post(t, donor.Client(), donor.URL+rq.path, rq.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: cold status %d: %s", rq.path, resp.StatusCode, body)
		}
		cold[i] = body
	}

	raw := snapshotOf(t, donor.URL)
	snapPath := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	for _, src := range []struct{ name, src string }{
		{"from file", snapPath},
		{"from peer URL", donor.URL + "/v1/cache/snapshot"},
	} {
		t.Run(src.name, func(t *testing.T) {
			fresh, ts := newTestServer(t, Config{})
			n, nbytes, err := fresh.WarmCache(src.src)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(reqs) || nbytes <= 0 {
				t.Fatalf("warmed %d entries / %d bytes, want %d entries", n, nbytes, len(reqs))
			}
			if fresh.tenants[defaultTenant].cache.Bytes() != nbytes {
				t.Fatalf("cache accounts %d bytes, WarmCache reported %d", fresh.tenants[defaultTenant].cache.Bytes(), nbytes)
			}
			for i, rq := range reqs {
				resp, body := post(t, ts.Client(), ts.URL+rq.path, rq.body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: warm status %d", rq.path, resp.StatusCode)
				}
				if resp.Header.Get("X-Cache") != "hit" {
					t.Fatalf("%s: first warmed request should be a cache hit", rq.path)
				}
				if !bytes.Equal(body, cold[i]) {
					t.Fatalf("%s: warm-started hit differs from donor's cold evaluation:\n%s\n%s",
						rq.path, body, cold[i])
				}
			}
		})
	}
}

// A truncated snapshot (torn download, donor crash mid-stream) must warm
// the intact prefix and lose only the tail — never error, never admit a
// corrupt body.
func TestWarmStartTornTail(t *testing.T) {
	_, donor := newTestServer(t, Config{})
	for seed := int64(1); seed <= 3; seed++ {
		body := `{"spec": ` + sampleSpec + `, "duration": 0.002, "seed": ` + string(rune('0'+seed)) + `}`
		if resp, out := post(t, donor.Client(), donor.URL+"/v1/simulate", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("cold status %d: %s", resp.StatusCode, out)
		}
	}
	raw := snapshotOf(t, donor.URL)
	torn := raw[:len(raw)-7] // tear inside the last frame's body

	snapPath := filepath.Join(t.TempDir(), "torn.snap")
	if err := os.WriteFile(snapPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := newTestServer(t, Config{})
	n, _, err := fresh.WarmCache(snapPath)
	if err != nil {
		t.Fatalf("torn tail must not fail the warm-start: %v", err)
	}
	if n != 2 {
		t.Fatalf("warmed %d entries from torn snapshot, want the 2 intact ones", n)
	}
}

// Entries over the warming replica's byte budget are skipped, not errors;
// a non-snapshot stream is rejected loudly.
func TestWarmStartBudgetAndBadMagic(t *testing.T) {
	_, donor := newTestServer(t, Config{})
	post(t, donor.Client(), donor.URL+"/v1/estimate", estimateBody(sampleSpec))
	raw := snapshotOf(t, donor.URL)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "cache.snap")
	if err := os.WriteFile(snapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	tiny := NewServer(Config{CacheBytes: 8}) // every real body is bigger
	t.Cleanup(tiny.Close)
	if n, _, err := tiny.WarmCache(snapPath); err != nil || n != 0 {
		t.Fatalf("over-budget entries should be skipped: n=%d err=%v", n, err)
	}

	// Anything not opening with the one snapshot magic — noise, or a
	// stream in the retired v1 format — is rejected before any entry is
	// admitted, so the replica starts cold.
	for name, data := range map[string][]byte{"bad.snap": []byte("not a snapshot"), "v1.snap": legacyV1Snapshot(t)} {
		badPath := filepath.Join(dir, name)
		if err := os.WriteFile(badPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		fresh := NewServer(Config{})
		t.Cleanup(fresh.Close)
		if n, _, err := fresh.WarmCache(badPath); !errors.Is(err, errBadMagic) || n != 0 {
			t.Fatalf("%s: warmed %d entries, err %v; want 0 and errBadMagic", name, n, err)
		}
	}
}

// An untenanted server snapshots in the one format: the magic, then its
// single partition's entries under the default tenant.
func TestUntenantedSnapshotDefaultSections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	post(t, ts.Client(), ts.URL+"/v1/estimate", estimateBody(sampleSpec))
	post(t, ts.Client(), ts.URL+"/v1/simulate", `{"spec": `+sampleSpec+`, "duration": 0.002, "seed": 3}`)
	raw := snapshotOf(t, ts.URL)
	records, _, err := jobs.ReplayRecords(bytes.NewReader(raw))
	if err != nil || len(records) == 0 || string(records[0]) != snapshotMagic {
		t.Fatalf("untenanted snapshot does not open with %q (err %v)", snapshotMagic, err)
	}
	got, err := decodeSnapshot(raw)
	if err != nil || len(got) != 2 {
		t.Fatalf("decoded %d entries, %v; want 2", len(got), err)
	}
	for _, e := range got {
		if e.tenant != defaultTenant {
			t.Fatalf("untenanted entry under tenant %q, want %q", e.tenant, defaultTenant)
		}
	}
}

// The snapshot endpoint on a cache-disabled server answers 404.
func TestSnapshotCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: -1})
	resp, err := http.Get(ts.URL + "/v1/cache/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

// A CRC-valid frame that is not an entry stops the warm-start with an
// error, and the entries before it stay admitted — the same prefix rule
// as a torn tail.
func TestWarmStartMalformedEntry(t *testing.T) {
	var buf bytes.Buffer
	for _, rec := range []string{snapshotMagic, "default\x00k1\x00{\"a\":1}\n", "default\x00no separator", "default\x00k2\x00{}\n"} {
		if err := jobs.WriteFrame(&buf, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "bad-entry.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	s, _ := newTestServer(t, Config{})
	n, nbytes, err := s.WarmCache(path)
	if err == nil {
		t.Fatal("a malformed entry must fail the warm-start")
	}
	if n != 1 || nbytes != int64(len("k1")+len("{\"a\":1}\n")) {
		t.Fatalf("warmed %d entries / %d bytes before the bad frame, want 1", n, nbytes)
	}
	if _, ok := s.tenants[defaultTenant].cache.Get("k1"); !ok {
		t.Fatal("the entry before the malformed frame must stay admitted")
	}
}

// snapTriple is one decoded snapshot entry.
type snapTriple struct {
	tenant, key string
	body        []byte
}

func decodeSnapshot(data []byte) ([]snapTriple, error) {
	var out []snapTriple
	err := readCacheSnapshot(bytes.NewReader(data), func(tenant, key string, body []byte) {
		out = append(out, snapTriple{tenant, key, body})
	})
	return out, err
}

func encodeSnapshot(t testing.TB, entries []snapTriple) []byte {
	var buf bytes.Buffer
	sections := make([]snapSection, len(entries))
	for i, e := range entries {
		sections[i] = snapSection{tenant: e.tenant, entries: []cacheEntry{{key: e.key, body: e.body}}}
	}
	if err := writeCacheSnapshot(&buf, sections); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyV1Snapshot hand-builds a stream in the retired untenanted format:
// its own magic, then key | 0x00 | body entries with no tenant prefix.
func legacyV1Snapshot(t testing.TB) []byte {
	var buf bytes.Buffer
	for _, rec := range []string{"lognic-cache-snapshot v1", "9f2c\x00{\"throughput\":1e9}\n", "a01b\x00body with a \x00 inside"} {
		if err := jobs.WriteFrame(&buf, []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// FuzzCacheSnapshot feeds arbitrary bytes — writer output, torn and
// bit-flipped copies, malformed entries, a retired v1 stream, noise —
// through the snapshot decoder. It must never panic; a stream that does
// not open with the snapshot magic must be rejected with nothing
// admitted; otherwise what it admits must be exactly the leading intact
// frames of the stream, in order, and a clean return means it admitted
// all of them; and the writer must round-trip whatever was decoded to
// identical (tenant, key, body) triples.
func FuzzCacheSnapshot(f *testing.F) {
	v1 := legacyV1Snapshot(f)
	v2 := encodeSnapshot(f, []snapTriple{
		{"alpha", "9f2c", []byte(`{"x":1}`)},
		{spillTenant, "77aa", []byte("spilled")},
		{defaultTenant, "0c0c", nil},
	})
	var malformed bytes.Buffer
	for _, rec := range []string{snapshotMagic, "alpha\x00k\x00b", "no separators"} {
		_ = jobs.WriteFrame(&malformed, []byte(rec))
	}
	flipped := append([]byte(nil), v2...)
	flipped[len(flipped)-2] ^= 0x20
	for _, seed := range [][]byte{v1, v2, v1[:len(v1)-3], v2[:40], flipped, malformed.Bytes(), {}, []byte("not a snapshot")} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decodeSnapshot(data)
		records, _, rerr := jobs.ReplayRecords(bytes.NewReader(data))
		if rerr != nil {
			t.Fatalf("in-memory replay failed: %v", rerr)
		}
		if len(records) == 0 || string(records[0]) != snapshotMagic {
			if err == nil || len(got) > 0 {
				t.Fatalf("stream without the snapshot magic admitted %d entries, err %v", len(got), err)
			}
			return
		}
		if len(got) > len(records)-1 {
			t.Fatalf("decoded %d entries from %d intact frames", len(got), len(records))
		}
		for i, e := range got {
			want := append(append(append(append([]byte(e.tenant), 0), e.key...), 0), e.body...)
			if !bytes.Equal(records[i+1], want) {
				t.Fatalf("entry %d %+v does not re-frame to intact frame %d", i, e, i+1)
			}
		}
		if err == nil && len(got) != len(records)-1 {
			t.Fatalf("clean decode admitted %d of %d entry frames", len(got), len(records)-1)
		}
		again, err := decodeSnapshot(encodeSnapshot(t, got))
		if err != nil || len(again) != len(got) {
			t.Fatalf("round trip: %d entries, %v; want %d", len(again), err, len(got))
		}
		for i := range got {
			if again[i].tenant != got[i].tenant || again[i].key != got[i].key || !bytes.Equal(again[i].body, got[i].body) {
				t.Fatalf("round trip changed entry %d: %+v → %+v", i, got[i], again[i])
			}
		}
	})
}
