package serve

// Cache snapshots — the shared tier behind per-replica L1 caches. A
// replica streams its result cache as a length-prefixed, CRC-framed dump
// (GET /v1/cache/snapshot, reusing the internal/jobs journal framing), and
// a fresh replica warm-starts from a peer's snapshot file or URL
// (Config.CacheWarmFrom / -cache-warm-from). Because cache entries are the
// exact serialized response bodies, a warm-started replica's first hit is
// byte-identical to the cold evaluation that populated the peer — the same
// guarantee the L1 gives, extended across the fleet.
//
// Stream layout: frame 0 is the magic/version record; every further frame
// is one entry, payload = tenant | 0x00 | key | 0x00 | body, each
// partition's entries ordered least recently used first so replaying
// Puts reconstructs the donor's recency order. A torn tail (snapshot
// taken mid-crash, truncated download) loses only the most recently used
// suffix — the frame scanner stops at the first bad frame — and never
// poisons an entry: bodies are CRC-covered end to end.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"lognic/internal/jobs"
)

// snapshotMagic is frame 0 of every snapshot stream; readers reject
// streams that don't open with it (wrong file, wrong endpoint, another
// format version). Every entry frame is prefixed with its partition's
// tenant name — "default" for an untenanted server's one partition, "*"
// for the spillover pool — so a warm-start restores each entry into the
// partition it came from.
const snapshotMagic = "lognic-cache-snapshot v2"

// snapSection is one partition's entries, least recently used first.
type snapSection struct {
	tenant  string
	entries []cacheEntry
}

// handleCacheSnapshot streams the result cache. The dump reflects one
// consistent moment of each partition's LRU order (Entries snapshots
// under the cache lock); bodies stream without re-marshaling.
func (s *Server) handleCacheSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.CacheEntries <= 0 {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: result cache disabled"))
		return
	}
	n := 0
	sections := make([]snapSection, len(s.partitions))
	for i, p := range s.partitions {
		sections[i] = snapSection{tenant: p.name, entries: p.cache.Entries()}
		n += len(sections[i].entries)
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Cache-Entries", fmt.Sprint(n))
	// On a mid-stream error the headers are gone; the client's replay
	// stops at the torn frame and keeps the prefix — exactly the
	// journal's crash contract.
	_ = writeCacheSnapshot(w, sections)
}

// writeCacheSnapshot frames the magic record and one record per entry:
// tenant | 0x00 | key | 0x00 | body. Tenant names and keys are NUL-free
// by construction (validTenantName; hex hashes), so the separators are
// unambiguous even though bodies may contain NULs.
func writeCacheSnapshot(w io.Writer, sections []snapSection) error {
	if err := jobs.WriteFrame(w, []byte(snapshotMagic)); err != nil {
		return err
	}
	var payload []byte
	for _, sec := range sections {
		for _, e := range sec.entries {
			payload = append(append(payload[:0], sec.tenant...), 0)
			payload = append(append(append(payload, e.key...), 0), e.body...)
			if err := jobs.WriteFrame(w, payload); err != nil {
				return err
			}
		}
	}
	return nil
}

// errBadMagic rejects a stream that is not a cache snapshot.
var errBadMagic = fmt.Errorf("serve: not a cache snapshot stream (bad magic)")

// readCacheSnapshot decodes a snapshot stream, handing each entry to put
// as soon as its frame is read — one record in memory at a time. It stops
// silently at the first corrupt frame (the replay contract: everything
// before a tear is trustworthy, the tear itself was unacknowledged), but
// a CRC-valid frame that is not an entry stops it with an error. Either
// way the entries already handed to put stay put.
func readCacheSnapshot(r io.Reader, put func(tenant, key string, body []byte)) error {
	sc := jobs.NewFrameScanner(r)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return errBadMagic
	}
	if string(sc.Record()) != snapshotMagic {
		return errBadMagic
	}
	nul := []byte{0}
	for sc.Scan() {
		tenant, rec, ok := bytes.Cut(sc.Record(), nul)
		if !ok {
			return fmt.Errorf("serve: malformed snapshot entry (no tenant separator)")
		}
		key, body, ok := bytes.Cut(rec, nul)
		if !ok || len(key) == 0 {
			return fmt.Errorf("serve: malformed snapshot entry (no key separator)")
		}
		// The scanner hands out a fresh buffer per frame, so the body can
		// be kept without a copy.
		put(string(tenant), string(key), body)
	}
	return sc.Err()
}

// WarmCache populates the result cache from a snapshot source — a file
// path or an http(s) URL (typically a peer replica's /v1/cache/snapshot).
// Entries replay in the donor's LRU order, so the warmed cache evicts in
// the same order the donor would have; entries over this replica's byte
// budget are skipped, not errors. Each entry is admitted as it is read,
// so memory stays within the cache budget plus one record. Returns how
// many entries and accounted bytes (keys plus bodies) were admitted —
// also alongside an error, since a malformed entry or a read failure
// stops the warm-start but keeps what came before it.
//
// Restores are partition-faithful. On a tenanted replica an entry lands
// in the partition named by its tenant prefix (the spill section in the
// spillover pool), and entries for tenants this replica doesn't configure
// are skipped — guessing a partition would let one tenant's bytes evict
// another's. An untenanted replica flattens every section into its one
// partition.
func (s *Server) WarmCache(src string) (entries int, admittedBytes int64, err error) {
	if s.cfg.CacheEntries <= 0 {
		return 0, 0, fmt.Errorf("serve: result cache disabled")
	}
	rc, err := openSnapshotSource(src)
	if err != nil {
		return 0, 0, err
	}
	defer rc.Close()
	err = readCacheSnapshot(rc, func(tenant, key string, body []byte) {
		if s.warmTarget(tenant).Put(key, body) {
			entries++
			admittedBytes += int64(len(key)) + int64(len(body))
		}
	})
	return entries, admittedBytes, err
}

// warmTarget picks the cache a snapshot section restores into (nil —
// skip — for a section this replica has no partition for).
func (s *Server) warmTarget(tenant string) *lruCache {
	switch {
	case !s.tenanted():
		return s.tenants[defaultTenant].cache
	case tenant == spillTenant:
		return s.spill
	}
	if t := s.tenants[tenant]; t != nil {
		return t.cache
	}
	return nil
}

// openSnapshotSource opens a warm-start source: URLs fetch with a bounded
// client, anything else is a local file path.
func openSnapshotSource(src string) (io.ReadCloser, error) {
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		client := &http.Client{Timeout: 2 * time.Minute}
		resp, err := client.Get(src)
		if err != nil {
			return nil, fmt.Errorf("serve: fetching snapshot: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return nil, fmt.Errorf("serve: snapshot peer answered %s", resp.Status)
		}
		return resp.Body, nil
	}
	f, err := os.Open(src)
	if err != nil {
		return nil, fmt.Errorf("serve: opening snapshot: %w", err)
	}
	return f, nil
}
