// Package wal implements the lodviz write-ahead log: an append-only file of
// CRC-framed add/delete batch records that the store appends to before
// applying a mutation, so that every acknowledged write survives a crash and
// replays deterministically over a snapshot restore.
//
// On-disk format — a flat sequence of frames, no header:
//
//	frame    uint32 LE payload length | payload | uint32 LE CRC-32 (IEEE)
//	         of the payload
//	payload  uint64 LE sequence number | op byte (OpAdd/OpDelete) |
//	         uvarint triple count | count × (subject term, predicate term,
//	         object term)
//	term     rdf.AppendBinary: a kind byte (rdf.TermKind) followed by
//	         uvarint-length-prefixed string fields — IRI/blank: one field;
//	         literal: lexical, datatype, lang — the codec the snapshot
//	         dictionary uses too
//
// Every uvarint has one spelling (rdf.Uvarint refuses a padded one), so a
// payload that decodes re-encodes to the same bytes, and the ledger's hashes
// over payloads are the same at append and at replay. The log carries no
// version: a change to this format changes those hashes too. Replay holds
// one frame's payload in memory at a time and decodes it from there.
//
// Sequence numbers are assigned at append time and increase by exactly one
// per record; after TruncateThrough the file starts at an arbitrary sequence
// but stays contiguous. Replay treats the first frame that fails length or
// checksum validation as the end of the log (a torn tail from a crash
// mid-append) and ignores everything after it; a frame whose checksum passes
// but whose payload does not decode is reported as corruption instead, since
// fsync never acknowledged half a payload.
//
// Durability contract: Append writes the frame into the OS file; Sync(seq)
// returns once every record up to at least seq is fsynced. Concurrent
// committers group-commit — one leader fsyncs on behalf of every record
// written before the syscall started, and waiters whose sequence is already
// covered return without touching the disk.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"github.com/lodviz/lodviz/internal/rdf"
)

// Op tags a record as a batch of inserts or a batch of deletes.
type Op uint8

const (
	// OpAdd records triples inserted into the live set.
	OpAdd Op = 1
	// OpDelete records triples removed from the live set.
	OpDelete Op = 2
)

func (op Op) String() string {
	switch op {
	case OpAdd:
		return "add"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// SyncPolicy selects when Sync actually reaches the disk.
type SyncPolicy int

const (
	// SyncAlways fsyncs before acknowledging a write (the default; the
	// durability contract above holds).
	SyncAlways SyncPolicy = iota
	// SyncNone never fsyncs — the OS flushes on its own schedule. Crash
	// durability drops to "whatever the page cache got out"; benchmarks and
	// tests that measure the non-fsync cost use it.
	SyncNone
)

// maxRecordLen bounds one frame's declared payload length; larger values are
// treated as corruption rather than honored as allocations. Ingest bodies
// are capped well below this.
const maxRecordLen = 1 << 28

// ErrCorrupt marks a frame whose checksum passed but whose payload does not
// decode — not a torn tail, an actual format violation.
var ErrCorrupt = errors.New("wal: corrupt record payload")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Record is one decoded log entry.
type Record struct {
	// Seq is the record's sequence number.
	Seq uint64
	// Op says whether Triples were added or deleted.
	Op Op
	// Triples is the batch, in the order it was applied.
	Triples []rdf.Triple
	// Payload is the raw encoded payload (sequence number included) — the
	// bytes the ledger hashes, identical across append and replay.
	Payload []byte
}

// Options configures Open.
type Options struct {
	// Sync is the fsync policy; zero value is SyncAlways.
	Sync SyncPolicy
	// Observer, when set, is called with every appended record's sequence
	// number and raw payload, in log order, before Append returns. The
	// mutation ledger hangs off this. The callback runs under the append
	// lock: keep it fast and never call back into the log.
	Observer func(seq uint64, payload []byte)
	// Metrics, when set, receives append/fsync instrumentation (see
	// metrics.go); nil disables it.
	Metrics *Metrics
}

// Log is an open write-ahead log. All methods are safe for concurrent use.
type Log struct {
	policy   SyncPolicy
	observer func(seq uint64, payload []byte)
	met      *Metrics
	path     string

	mu      sync.Mutex // serializes appends and fd swaps
	f       *os.File
	nextSeq uint64
	written uint64 // highest sequence written into the fd
	closed  bool

	syncMu  sync.Mutex
	syncCv  *sync.Cond
	synced  uint64 // highest sequence covered by a completed fsync
	syncing bool   // a leader's fsync is in flight
}

// Open opens (creating if absent) the log at path, scans it, truncates a
// torn tail if the last frame is incomplete, and positions for appending.
// The next record gets the sequence number after the last surviving one.
func Open(path string, opt Options) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	lastSeq, valid, err := scanLog(f, nil)
	if err != nil {
		_ = f.Close() // abandoning the fd; the scan error wins
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > valid {
		if err := f.Truncate(valid); err != nil {
			_ = f.Close() // abandoning the fd; the truncate error wins
			return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		_ = f.Close() // abandoning the fd; the seek error wins
		return nil, fmt.Errorf("wal: seek: %w", err)
	}
	l := &Log{
		policy:   opt.Sync,
		observer: opt.Observer,
		met:      opt.Metrics,
		path:     path,
		f:        f,
		nextSeq:  lastSeq + 1,
		written:  lastSeq,
		synced:   lastSeq, // surviving records were durable before we opened
	}
	l.syncCv = sync.NewCond(&l.syncMu)
	return l, nil
}

// LastSeq returns the sequence number of the last record written (not
// necessarily synced); 0 if the log is empty.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written
}

// Append encodes one batch record, assigns it the next sequence number, and
// writes its frame into the log file. The record is NOT durable until
// Sync(seq) returns; callers must not acknowledge the write before that.
func (l *Log) Append(op Op, triples []rdf.Triple) (uint64, error) {
	if op != OpAdd && op != OpDelete {
		return 0, fmt.Errorf("wal: invalid op %d", op)
	}
	payload := encodePayload(0, op, triples)

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	seq := l.nextSeq
	binary.LittleEndian.PutUint64(payload[:8], seq)

	frame := make([]byte, 0, 8+len(payload))
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(payload))
	if _, err := l.f.Write(frame); err != nil {
		// The fd may now hold a torn frame; the next open's tail scan drops
		// it. Do not advance the sequence past a record that isn't in the
		// file.
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.nextSeq++
	l.written = seq
	l.met.observeAppend(len(triples))
	if l.observer != nil {
		l.observer(seq, payload)
	}
	return seq, nil
}

// AppendAdd appends an OpAdd record.
func (l *Log) AppendAdd(triples []rdf.Triple) (uint64, error) {
	return l.Append(OpAdd, triples)
}

// AppendDelete appends an OpDelete record.
func (l *Log) AppendDelete(triples []rdf.Triple) (uint64, error) {
	return l.Append(OpDelete, triples)
}

// Sync blocks until every record with sequence ≤ seq is fsynced (under
// SyncAlways; a no-op under SyncNone). Concurrent callers group-commit: the
// first uncovered caller becomes the leader and issues one fsync covering
// everything written before it, and the rest wait on that fsync instead of
// issuing their own.
func (l *Log) Sync(seq uint64) error {
	if l.policy == SyncNone {
		return nil
	}
	l.syncMu.Lock()
	var syncedBefore uint64
	for {
		if l.synced >= seq {
			l.syncMu.Unlock()
			return nil
		}
		if !l.syncing {
			l.syncing = true
			syncedBefore = l.synced
			break
		}
		// A leader's fsync is in flight; it may already cover seq. Wait for
		// its broadcast and re-check.
		l.syncCv.Wait()
	}
	l.syncMu.Unlock()

	// Leader: fsync covers every record written before the syscall starts.
	l.mu.Lock()
	target := l.written
	f := l.f
	closed := l.closed
	l.mu.Unlock()
	var err error
	if closed {
		err = ErrClosed
	} else {
		start := time.Now()
		err = f.Sync()
		if err == nil {
			l.met.observeFsync(start, syncedBefore, target)
		}
	}

	l.syncMu.Lock()
	l.syncing = false
	if err == nil && target > l.synced {
		l.synced = target
	}
	l.syncCv.Broadcast()
	l.syncMu.Unlock()
	if err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	// target ≥ seq: the caller's record was written before it called Sync.
	return nil
}

// TruncateThrough atomically drops every record with sequence ≤ seq,
// keeping the suffix. The store calls it after a snapshot that is known to
// cover those records. The suffix is rewritten to a temporary file, fsynced,
// and renamed over the log, so a crash at any point leaves either the old
// or the new log — never a mix.
func (l *Log) TruncateThrough(seq uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}

	src, err := os.Open(l.path)
	if err != nil {
		return fmt.Errorf("wal: truncate open: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), filepath.Base(l.path)+".truncate-*")
	if err != nil {
		_ = src.Close() // abandoning the read fd; the temp error wins
		return fmt.Errorf("wal: truncate temp: %w", err)
	}
	tmpPath := tmp.Name()
	fail := func(err error) error {
		// Abandoning both files; the caller's error wins and the temp
		// file is removed, so neither close can lose data.
		_ = src.Close()
		_ = tmp.Close()
		os.Remove(tmpPath)
		return err
	}
	_, _, err = scanLog(src, func(rec Record) error {
		if rec.Seq <= seq {
			return nil
		}
		frame := make([]byte, 0, 8+len(rec.Payload))
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(rec.Payload)))
		frame = append(frame, rec.Payload...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(rec.Payload))
		_, werr := tmp.Write(frame)
		return werr
	})
	// Read-side close: every byte that matters already flowed through
	// scanLog, whose error is checked next.
	_ = src.Close()
	if err != nil {
		return fail(fmt.Errorf("wal: truncate rewrite: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("wal: truncate sync: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fail(fmt.Errorf("wal: truncate close: %w", err))
	}
	if err := os.Rename(tmpPath, l.path); err != nil {
		os.Remove(tmpPath)
		return fmt.Errorf("wal: truncate rename: %w", err)
	}
	if err := syncDir(filepath.Dir(l.path)); err != nil {
		// The rename happened but its directory entry may not be durable:
		// a crash could resurrect the pre-truncation log. Replay is
		// idempotent, so that is not data loss — but an I/O error on the
		// directory is the disk telling us something; surface it.
		return err
	}

	nf, err := os.OpenFile(l.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: truncate reopen: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		_ = nf.Close() // abandoning the fresh fd; the seek error wins
		return fmt.Errorf("wal: truncate seek: %w", err)
	}
	// The old fd's name was renamed away; nothing further can be written
	// through it and its close result is meaningless.
	_ = l.f.Close()
	l.f = nf
	// Everything in the rewritten file went through the temp file's fsync.
	l.syncMu.Lock()
	if l.written > l.synced {
		l.synced = l.written
	}
	l.syncMu.Unlock()
	return nil
}

// Close fsyncs (under SyncAlways) and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.policy == SyncAlways {
		err = l.f.Sync()
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	// Release anyone parked behind an in-flight leader.
	l.syncMu.Lock()
	if l.written > l.synced {
		l.synced = l.written
	}
	l.syncCv.Broadcast()
	l.syncMu.Unlock()
	return err
}

// Replay streams every decodable record in the log at path through fn, in
// order, and returns the last sequence number seen (0 for an empty or
// missing log). A torn final frame is silently tolerated; a checksum-valid
// frame with an undecodable payload returns ErrCorrupt; an error from fn
// aborts the replay.
func Replay(path string, fn func(Record) error) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, fmt.Errorf("wal: replay open: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only; scanLog reports read errors
	lastSeq, _, err := scanLog(f, fn)
	return lastSeq, err
}

// scanLog reads frames from r until EOF or the first framing/checksum
// failure (a torn tail), invoking fn — when non-nil — per decoded record. It
// returns the last sequence seen and the byte offset just past the last
// valid frame. Decode failures inside a checksum-valid frame, sequence
// discontinuities, and fn errors are returned as errors.
func scanLog(r io.Reader, fn func(Record) error) (lastSeq uint64, valid int64, err error) {
	br := &countReader{r: r}
	var hdr [4]byte
	var prev uint64
	for {
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return prev, valid, nil // clean EOF or torn length prefix
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n < 9 || n > maxRecordLen {
			return prev, valid, nil // absurd length: torn or scribbled tail
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			return prev, valid, nil
		}
		var tr [4]byte
		if _, err := io.ReadFull(br, tr[:]); err != nil {
			return prev, valid, nil
		}
		if binary.LittleEndian.Uint32(tr[:]) != crc32.ChecksumIEEE(payload) {
			return prev, valid, nil
		}
		rec, err := DecodePayload(payload)
		if err != nil {
			return prev, valid, err
		}
		if prev != 0 && rec.Seq != prev+1 {
			return prev, valid, fmt.Errorf("%w: sequence %d after %d", ErrCorrupt, rec.Seq, prev)
		}
		if fn != nil {
			if err := fn(rec); err != nil {
				return prev, valid, err
			}
		}
		prev = rec.Seq
		valid = br.n
	}
}

// countReader tracks how many bytes have been consumed.
type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// encodePayload serializes one record payload with the given sequence
// number stamped into the first eight bytes.
func encodePayload(seq uint64, op Op, triples []rdf.Triple) []byte {
	buf := make([]byte, 0, 16+32*len(triples))
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = append(buf, byte(op))
	buf = binary.AppendUvarint(buf, uint64(len(triples)))
	for _, t := range triples {
		buf = rdf.AppendBinary(buf, t.S)
		buf = rdf.AppendBinary(buf, t.P)
		buf = rdf.AppendBinary(buf, t.O)
	}
	return buf
}

// DecodePayload decodes one record payload (the bytes between a frame's
// length prefix and checksum). It never panics on malformed input; the fuzz
// target drives it with arbitrary bytes.
func DecodePayload(payload []byte) (Record, error) {
	if len(payload) < 9 {
		return Record{}, fmt.Errorf("%w: payload too short (%d bytes)", ErrCorrupt, len(payload))
	}
	rec := Record{
		Seq:     binary.LittleEndian.Uint64(payload[:8]),
		Op:      Op(payload[8]),
		Payload: payload,
	}
	if rec.Seq == 0 {
		return Record{}, fmt.Errorf("%w: sequence 0", ErrCorrupt)
	}
	if rec.Op != OpAdd && rec.Op != OpDelete {
		return Record{}, fmt.Errorf("%w: unknown op %d", ErrCorrupt, payload[8])
	}
	count, n := rdf.Uvarint(payload[9:])
	if n == 0 {
		return Record{}, fmt.Errorf("%w: bad triple count", ErrCorrupt)
	}
	off := 9 + n
	if count > uint64(len(payload)) { // every triple takes ≥ 6 bytes
		return Record{}, fmt.Errorf("%w: triple count %d exceeds payload", ErrCorrupt, count)
	}
	rec.Triples = make([]rdf.Triple, 0, count)
	var spo [3]rdf.Term
	for i := uint64(0); i < count; i++ {
		for j := range spo {
			t, n, err := rdf.DecodeBinary(payload[off:])
			if err != nil {
				return Record{}, fmt.Errorf("%w: term at offset %d: %v", ErrCorrupt, off, err)
			}
			spo[j] = t
			off += n
		}
		pred, ok := spo[1].(rdf.IRI)
		if !ok {
			return Record{}, fmt.Errorf("%w: predicate is not an IRI", ErrCorrupt)
		}
		t := rdf.Triple{S: spo[0], P: pred, O: spo[2]}
		if !t.Valid() {
			return Record{}, fmt.Errorf("%w: invalid triple at index %d", ErrCorrupt, i)
		}
		rec.Triples = append(rec.Triples, t)
	}
	if off != len(payload) {
		return Record{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(payload)-off)
	}
	return rec, nil
}

// syncDir fsyncs a directory so a just-renamed file's directory entry is
// durable. Filesystems that reject directory fsync (EINVAL) are treated as
// clean — the rename itself already happened and nothing more can be done —
// but a real I/O error on the directory surfaces to the caller.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil // directory unreadable here; the rename still happened
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		if errors.Is(serr, syscall.EINVAL) {
			return nil
		}
		return fmt.Errorf("wal: directory sync: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("wal: directory close: %w", cerr)
	}
	return nil
}
