package jobs

// The durable journal: an append-only file of CRC-framed records that
// makes accepted jobs survive kill -9. Every state transition the manager
// must not forget — submission, terminal completion, terminal failure,
// cancellation, and per-attempt failures (so retry budgets survive a
// crash) — is framed, appended and fsynced before the transition is
// acknowledged.
//
// Frame format, little-endian:
//
//	+---------+----------+------------------+
//	| len u32 | crc32c u32 | payload (len B) |
//	+---------+----------+------------------+
//
// crc32c is the Castagnoli CRC of the payload. Replay reads frames until
// the first hole — a short header, a length beyond the file, a CRC
// mismatch, or an oversized length field — and recovers every record
// before it; the file is then truncated back to the last good frame so
// new appends never interleave with a torn tail. A kill -9 can tear at
// most the frame being written, which was by definition unacknowledged.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// maxRecordLen bounds one record's payload. Journal records are small
// JSON documents (a submitted spec, a serialized result); anything past
// this is a corrupt length field, not a record — replay must not trust a
// torn u32 enough to allocate 4 GiB.
const maxRecordLen = 64 << 20

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrRecordTooLarge reports an Append payload over maxRecordLen.
var ErrRecordTooLarge = errors.New("jobs: journal record exceeds size cap")

// ReplayRecords reads CRC-framed records from r until EOF or the first
// corrupt frame. It returns the intact records and the byte offset of
// the first hole (== bytes consumed by intact frames). Corruption is not
// an error: a torn tail is the expected crash signature, and everything
// before it is trustworthy. The reader is consumed; errors other than
// frame corruption (I/O failures) are returned alongside the records
// recovered so far.
func ReplayRecords(r io.Reader) (records [][]byte, goodBytes int64, err error) {
	sc := NewFrameScanner(r)
	for sc.Scan() {
		records = append(records, sc.Record())
	}
	return records, sc.Offset(), sc.Err()
}

// FrameScanner reads CRC-framed records one at a time, so a consumer can
// act on each record as it arrives instead of holding the whole stream:
// at most one record (≤ maxRecordLen) is buffered. It ends where
// ReplayRecords does — at EOF or the first corrupt frame (a short
// header, an oversized length field, a torn payload, a CRC mismatch) —
// and only I/O failures surface from Err.
type FrameScanner struct {
	br   *bufio.Reader
	rec  []byte
	good int64
	err  error
	done bool
}

// NewFrameScanner scans CRC-framed records from r.
func NewFrameScanner(r io.Reader) *FrameScanner {
	return &FrameScanner{br: bufio.NewReader(r)}
}

// Scan advances to the next intact frame, reporting false once the
// intact prefix is exhausted.
func (s *FrameScanner) Scan() bool {
	if s.done {
		return false
	}
	var head [8]byte
	if _, err := io.ReadFull(s.br, head[:]); err != nil {
		return s.stop(err) // clean end or torn header
	}
	n := binary.LittleEndian.Uint32(head[0:4])
	sum := binary.LittleEndian.Uint32(head[4:8])
	if n > maxRecordLen {
		return s.stop(nil) // corrupt length field
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(s.br, payload); err != nil {
		return s.stop(err) // torn payload
	}
	if crc32.Checksum(payload, crcTable) != sum {
		return s.stop(nil) // bit rot or torn overwrite
	}
	s.rec = payload
	s.good += 8 + int64(n)
	return true
}

// stop ends the scan. EOF mid-frame is the torn-tail signature, not an
// error; any other read failure is kept for Err.
func (s *FrameScanner) stop(err error) bool {
	s.done, s.rec = true, nil
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		s.err = err
	}
	return false
}

// Record is the payload of the frame Scan just read. Every frame gets a
// fresh buffer, so the caller may keep it.
func (s *FrameScanner) Record() []byte { return s.rec }

// Offset is the byte length of the intact frames scanned so far.
func (s *FrameScanner) Offset() int64 { return s.good }

// Err is the I/O error that ended the scan, nil for EOF or corruption.
func (s *FrameScanner) Err() error { return s.err }

// Journal is an append-only CRC-framed record log.
type Journal struct {
	f    *os.File
	path string
}

// OpenJournal opens (or creates) the journal at path, replays its intact
// records, and truncates any torn tail so subsequent appends start at a
// clean frame boundary.
func OpenJournal(path string) (*Journal, [][]byte, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	records, good, err := ReplayRecords(f)
	if err != nil {
		f.Close()
		return nil, records, fmt.Errorf("jobs: replaying journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, records, fmt.Errorf("jobs: stat journal: %w", err)
	}
	if st.Size() > good {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, records, fmt.Errorf("jobs: truncating torn journal tail: %w", err)
		}
	}
	if _, err := f.Seek(good, io.SeekStart); err != nil {
		f.Close()
		return nil, records, fmt.Errorf("jobs: seeking journal: %w", err)
	}
	return &Journal{f: f, path: path}, records, nil
}

// frameHeader builds the 8-byte frame header for payload.
func frameHeader(payload []byte) []byte {
	head := make([]byte, 8)
	binary.LittleEndian.PutUint32(head[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(head[4:8], crc32.Checksum(payload, crcTable))
	return head
}

// WriteFrame writes one CRC-framed record to w in the journal's frame
// format (len u32 | crc32c u32 | payload, little-endian). It is the
// writing counterpart of FrameScanner for consumers that frame records
// over something other than the job journal — lognic-serve's cache
// snapshots use it so a snapshot stream gets the same torn-tail and
// bit-rot detection the journal has.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxRecordLen {
		return ErrRecordTooLarge
	}
	if _, err := w.Write(frameHeader(payload)); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Append frames, writes and fsyncs one record. An error means the record
// may not be durable; the caller decides whether to degrade to
// memory-only operation or refuse the transition.
func (j *Journal) Append(payload []byte) error {
	if len(payload) > maxRecordLen {
		return ErrRecordTooLarge
	}
	// One Write call per frame section; a torn frame is recovered by
	// replay's CRC check regardless of where the tear lands.
	if _, err := j.f.Write(frameHeader(payload)); err != nil {
		return fmt.Errorf("jobs: journal write: %w", err)
	}
	if _, err := j.f.Write(payload); err != nil {
		return fmt.Errorf("jobs: journal write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("jobs: journal fsync: %w", err)
	}
	return nil
}

// Close closes the journal file.
func (j *Journal) Close() error { return j.f.Close() }
