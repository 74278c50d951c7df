package jobs

// Per-job checkpoint slots. A long simulation saves its serialized
// sim.Checkpoint here periodically; the next attempt (same process after
// a retry, or a fresh process after a crash) Loads it and resumes
// instead of starting over. On disk each slot is a single CRC-framed
// record written atomically (tmp + fsync + rename), so a crash mid-save
// leaves either the old checkpoint or the new one, never a torn file.

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"lognic/internal/obs"
)

// ckptName maps a job id to its checkpoint filename. Job ids are hex
// hashes; anything else is hex-armored so an id can never escape Dir.
var hexID = regexp.MustCompile(`^[0-9a-f]{8,64}$`)

func ckptName(id string) string {
	if !hexID.MatchString(id) {
		id = hex.EncodeToString([]byte(id))
	}
	return "ckpt-" + id + ".bin"
}

// ckptSlot is the CheckpointStore handed to one evaluation attempt.
type ckptSlot struct {
	m  *Manager
	id string
}

func (c *ckptSlot) Load() ([]byte, bool) {
	c.m.mu.Lock()
	j := c.m.jobs[c.id]
	degraded := c.m.degraded
	dir := c.m.cfg.Dir
	var mem []byte
	if j != nil && j.memCkpt != nil {
		mem = append([]byte(nil), j.memCkpt...)
	}
	c.m.mu.Unlock()

	if mem != nil {
		return mem, true
	}
	if dir == "" || degraded {
		return nil, false
	}
	f, err := os.Open(filepath.Join(dir, ckptName(c.id)))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	// The slot holds exactly one frame; a torn or bit-rotted file yields
	// zero records and the attempt starts from scratch — safe, just slower.
	records, _, err := ReplayRecords(f)
	if err != nil || len(records) == 0 {
		return nil, false
	}
	return records[0], true
}

func (c *ckptSlot) Save(b []byte) {
	c.m.mu.Lock()
	degraded := c.m.degraded
	dir := c.m.cfg.Dir
	c.m.noteCheckpointLocked(c.id, len(b))
	c.m.mu.Unlock()

	if dir != "" && !degraded {
		err := writeCkptFile(filepath.Join(dir, ckptName(c.id)), b)
		if err == nil {
			return
		}
		c.m.mu.Lock()
		if errors.Is(err, ErrRecordTooLarge) {
			// One job's checkpoint outgrew a frame; the disk is fine. Keep
			// this job's copy in memory and the journal open for the rest.
			c.m.jErrors.Inc()
		} else {
			c.m.degradeLocked(fmt.Errorf("checkpoint save: %w", err))
		}
		c.m.mu.Unlock()
	}
	c.m.mu.Lock()
	if j := c.m.jobs[c.id]; j != nil {
		j.memCkpt = append([]byte(nil), b...)
	}
	c.m.mu.Unlock()
}

// writeCkptFile atomically replaces path with one CRC-framed record.
func writeCkptFile(path string, payload []byte) error {
	if len(payload) > maxRecordLen {
		return ErrRecordTooLarge
	}
	var buf bytes.Buffer
	buf.Grow(8 + len(payload))
	buf.Write(frameHeader(payload))
	buf.Write(payload)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// dropCheckpointLocked discards a terminal job's checkpoint, both the
// in-memory copy and the on-disk slot. Caller holds mu.
func (m *Manager) dropCheckpointLocked(j *job) {
	j.memCkpt = nil
	if m.cfg.Dir != "" {
		os.Remove(filepath.Join(m.cfg.Dir, ckptName(j.id)))
	}
}

// noteCheckpointLocked books one checkpoint save: a checkpoint event on
// the job's feed and a point span under the running attempt. Caller
// holds mu.
func (m *Manager) noteCheckpointLocked(id string, bytes int) {
	j := m.jobs[id]
	if j == nil {
		return
	}
	j.ckptSaves++
	state, attempts := j.status()
	m.publishLocked(id, Event{Type: EventCheckpoint, State: state,
		Attempt: attempts, Checkpoints: j.ckptSaves})
	if m.cfg.Tracer != nil {
		var traceID string
		if tc, err := obs.ParseTraceparent(j.trace); err == nil {
			traceID = tc.TraceID
		}
		m.cfg.Tracer.Emit(obs.Span{
			Name: "checkpoint", Cat: "job",
			Track: jobTrack(id), Start: m.cfg.SpanTime(), Dur: 0,
			Args:    map[string]any{"job_id": id, "bytes": bytes},
			TraceID: traceID, ParentID: j.attemptSpanID,
		})
	}
}

// MarkResumed records that an attempt restored a checkpoint (surfaced on
// the Job snapshot and the resumed counter). Evaluators call it via the
// manager reference they close over.
func (m *Manager) MarkResumed(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if j := m.jobs[id]; j != nil && !j.resumed {
		j.resumed = true
		state, attempts := j.status()
		m.jobLogger(j).Info("attempt resumed from checkpoint", "attempt", attempts)
		m.publishLocked(id, Event{Type: EventResumed, State: state,
			Attempt: attempts, Resumed: true})
	}
	m.resumes.Inc()
}
