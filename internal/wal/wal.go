// Package wal implements the write-ahead log for the disk-backed mode of the
// TROD storage engine. Records are length-prefixed and CRC-checked; a
// truncated tail (torn final write after a crash) is tolerated on recovery.
//
// The log carries three record types: DDL statements (schema changes, stored
// as SQL text and re-parsed on recovery), commit records (the storage
// engine's CDC CommitRecord, re-applied through Store.ApplyCommitted), and
// checkpoint pointers (written at the head of a rotated log, naming the
// snapshot file that holds all state up to a sequence).
//
// Durability under SyncEachCommit uses group commit: appends are positioned
// under the log mutex, but the flush+fsync making them durable batches all
// concurrent committers behind one leader — callers block in WaitDurable
// until the fsync covering their record returns, so the fsync count stays
// well below the commit count under load while every acknowledged commit is
// on disk.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/storage"
	"repro/internal/value"
)

// RecordType distinguishes WAL record payloads.
type RecordType uint8

// WAL record types.
const (
	RecordDDL RecordType = iota + 1
	RecordCommit
	// RecordCheckpoint marks that all state up to Checkpoint.Seq lives in the
	// named snapshot file; recovery may load the snapshot and skip straight to
	// the records that follow. Rotation writes one at the head of the new log.
	RecordCheckpoint
)

// SyncPolicy controls durability of appends.
type SyncPolicy uint8

// Sync policies.
const (
	// SyncNever buffers writes in the OS page cache (and a bufio layer),
	// flushing on Close. This mode models the paper's "on-disk database"
	// regime: the commit path includes file I/O but not per-commit fsync.
	SyncNever SyncPolicy = iota
	// SyncEachCommit makes every append durable before acknowledging it.
	// Concurrent appenders share fsyncs through group commit.
	SyncEachCommit
)

// File is the handle the log writes through; *os.File satisfies it. Tests
// inject fault-injecting implementations (internal/crashtest) to cut writes
// at arbitrary byte offsets.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Checkpoint is the payload of a RecordCheckpoint: all state with commit
// sequence <= Seq is captured by the snapshot file named Snapshot (a base
// name, resolved relative to the log's directory).
type Checkpoint struct {
	Seq      uint64
	Snapshot string
}

// Stats reports log counters for checkpoint triggers and tests.
type Stats struct {
	// Syncs is the number of fsyncs issued over the log's lifetime; under
	// group commit it stays below the number of committed transactions.
	Syncs uint64
	// Rotations counts completed log rotations (checkpoints).
	Rotations int
	// RecordsSinceCheckpoint and BytesSinceCheckpoint measure log growth
	// since the last rotation (or open), driving automatic checkpoints.
	RecordsSinceCheckpoint int
	BytesSinceCheckpoint   int64
}

// Log is an append-only write-ahead log.
type Log struct {
	mu     sync.Mutex
	f      File
	w      *bufio.Writer
	path   string // empty when not file-backed (injected File); rotation needs it
	policy SyncPolicy
	closed bool

	// Group-commit state. LSNs are cumulative appended byte offsets and stay
	// monotonic across rotations, so a waiter's target never goes stale.
	appended int64
	synced   int64
	syncing  bool
	syncErr  error // sticky: after a failed flush/fsync the log is poisoned
	durable  *sync.Cond
	syncs    uint64

	// Growth since the last rotation, for checkpoint triggers.
	rotRecords int
	rotBytes   int64
	rotations  int

	// syncDelay artificially lengthens the leader's fsync window. Tests use
	// it to make group-commit batching deterministic on filesystems where
	// fsync is nearly free (tmpfs) and the window would otherwise close
	// before any follower arrives.
	syncDelay time.Duration
}

// Open opens (creating if needed) the log at path for appending.
func Open(path string, policy SyncPolicy) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := NewLog(f, policy)
	l.path = path
	return l, nil
}

// NewLog wraps an already-open file handle. Logs built this way cannot
// Rotate (no path); tests use it to run the log over fault-injecting files.
func NewLog(f File, policy SyncPolicy) *Log {
	l := &Log{f: f, w: bufio.NewWriterSize(f, 1<<16), policy: policy}
	l.durable = sync.NewCond(&l.mu)
	return l
}

// AppendDDL logs a schema-change statement, durably under SyncEachCommit.
func (l *Log) AppendDDL(stmt string) error {
	lsn, err := l.AppendDDLLSN(stmt)
	if err != nil {
		return err
	}
	if l.policy == SyncEachCommit {
		return l.WaitDurable(lsn)
	}
	return nil
}

// AppendDDLLSN appends a schema-change record without waiting for
// durability, returning the LSN to pass to WaitDurable.
func (l *Log) AppendDDLLSN(stmt string) (int64, error) {
	return l.append(RecordDDL, []byte(stmt))
}

// AppendCommit logs a committed transaction, durably under SyncEachCommit
// (batched with concurrent appenders via group commit).
func (l *Log) AppendCommit(rec storage.CommitRecord) error {
	lsn, err := l.AppendCommitLSN(rec)
	if err != nil {
		return err
	}
	if l.policy == SyncEachCommit {
		return l.WaitDurable(lsn)
	}
	return nil
}

// AppendCommitLSN appends a commit record without waiting for durability and
// returns its end LSN. The database facade appends under the store's commit
// lock (fixing the log order to the serialization order) and calls
// WaitDurable after releasing it, so fsyncs batch across committers.
func (l *Log) AppendCommitLSN(rec storage.CommitRecord) (int64, error) {
	return l.append(RecordCommit, EncodeCommit(nil, rec))
}

func (l *Log) append(rt RecordType, payload []byte) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, errors.New("wal: log is closed")
	}
	if l.syncErr != nil {
		return 0, l.syncErr
	}
	n, err := writeFrame(l.w, rt, payload)
	if err != nil {
		// A torn buffered write poisons the log: later frames would land at
		// unpredictable offsets.
		l.syncErr = fmt.Errorf("wal: append: %w", err)
		l.durable.Broadcast()
		return 0, l.syncErr
	}
	l.appended += int64(n)
	l.rotBytes += int64(n)
	l.rotRecords++
	return l.appended, nil
}

// writeFrame writes one length-prefixed, CRC-protected record.
func writeFrame(w io.Writer, rt RecordType, payload []byte) (int, error) {
	var hdr [9]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)+1))
	crc := crc32.NewIEEE()
	crc.Write([]byte{byte(rt)})
	crc.Write(payload)
	binary.LittleEndian.PutUint32(hdr[4:8], crc.Sum32())
	hdr[8] = byte(rt)
	if _, err := w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := w.Write(payload); err != nil {
		return 0, err
	}
	return len(hdr) + len(payload), nil
}

// WaitDurable blocks until every byte up to lsn is flushed and fsynced. One
// caller at a time becomes the sync leader: it flushes the buffer under the
// lock, releases it for the fsync (the batching window — other committers
// append and queue here), then wakes all waiters its fsync covered. A failed
// flush or fsync is sticky: the WAL cannot tell which buffered bytes reached
// the disk, so every later operation reports the same error.
func (l *Log) WaitDurable(lsn int64) error {
	_, err := l.WaitDurableLed(lsn)
	return err
}

// WaitDurableLed is WaitDurable, additionally reporting whether this caller
// led an fsync batch (true) or rode another leader's fsync (false). The db
// facade uses the distinction to label commit-latency spans wal_fsync vs
// group_commit_wait; this package is in the deterministic set, so the
// timing itself happens in the caller.
func (l *Log) WaitDurableLed(lsn int64) (led bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for {
		if l.syncErr != nil {
			return led, l.syncErr
		}
		if l.synced >= lsn {
			return led, nil
		}
		if l.closed {
			return led, errors.New("wal: log closed before sync")
		}
		if !l.syncing {
			led = true
			l.syncing = true
			upTo := l.appended
			if err := l.w.Flush(); err != nil {
				l.syncing = false
				l.syncErr = fmt.Errorf("wal: flush: %w", err)
				l.durable.Broadcast()
				return led, l.syncErr
			}
			f, delay := l.f, l.syncDelay
			l.mu.Unlock()
			if delay > 0 {
				time.Sleep(delay)
			}
			err := f.Sync()
			l.mu.Lock()
			l.syncing = false
			l.syncs++
			if err != nil {
				l.syncErr = fmt.Errorf("wal: sync: %w", err)
			} else if upTo > l.synced {
				l.synced = upTo
			}
			l.durable.Broadcast()
			continue
		}
		l.durable.Wait()
	}
}

// SetSyncDelay injects an artificial delay into the group-commit leader's
// fsync window, modelling real disk fsync latency on filesystems where
// fsync is nearly free (tmpfs, fast NVMe with volatile caches). The
// group-commit and span tests use it so batching behaviour is observable and
// reproducible regardless of the host's filesystem; production deployments
// leave it zero.
func (l *Log) SetSyncDelay(d time.Duration) {
	l.mu.Lock()
	l.syncDelay = d
	l.mu.Unlock()
}

// Sync makes everything appended so far durable.
func (l *Log) Sync() error {
	l.mu.Lock()
	lsn := l.appended
	l.mu.Unlock()
	return l.WaitDurable(lsn)
}

// Flush drains buffered appends to the OS without fsync.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	if err := l.w.Flush(); err != nil {
		l.syncErr = fmt.Errorf("wal: flush: %w", err)
		l.durable.Broadcast()
		return l.syncErr
	}
	return nil
}

// Stats returns log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Syncs:                  l.syncs,
		Rotations:              l.rotations,
		RecordsSinceCheckpoint: l.rotRecords,
		BytesSinceCheckpoint:   l.rotBytes,
	}
}

// Rotate truncates the log after a successful checkpoint: a new log holding
// only the checkpoint pointer plus the post-snapshot commit tail atomically
// replaces the current one, and the full pre-rotation log is kept as
// path+".old" — one fallback generation in case the snapshot later proves
// unreadable. The caller must prevent concurrent appends (the database runs
// Rotate inside Store.CheckpointTail, which holds the commit lock); only
// in-flight WaitDurable leaders are tolerated.
//
// Crash safety: the new log is written to path+".rotate" and fsynced before
// any rename. A crash between the two renames leaves the repairable states
// (old log intact + stale .rotate) or (.old + .rotate, no log); see
// RepairRotation.
func (l *Log) Rotate(cp Checkpoint, tail []storage.CommitRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.path == "" {
		return errors.New("wal: rotate requires a file-backed log")
	}
	for l.syncing {
		l.durable.Wait()
	}
	if l.syncErr != nil {
		return l.syncErr
	}
	// Make the outgoing log fully durable: until the rename lands, it is
	// still the recovery source of truth.
	if err := l.w.Flush(); err != nil {
		l.syncErr = fmt.Errorf("wal: flush: %w", err)
		l.durable.Broadcast()
		return l.syncErr
	}
	//trodlint:allow lockhold -- rotation is a deliberate stop-the-world swap; the outgoing log must be durable before the rename, and appenders must stay parked until the new file is in place
	if err := l.f.Sync(); err != nil {
		l.syncErr = fmt.Errorf("wal: sync: %w", err)
		l.durable.Broadcast()
		return l.syncErr
	}
	l.syncs++
	l.synced = l.appended

	tmp := l.path + ".rotate"
	nf, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: rotate: %w", err)
	}
	nw := bufio.NewWriterSize(nf, 1<<16)
	written := 0
	n, err := writeFrame(nw, RecordCheckpoint, EncodeCheckpoint(nil, cp))
	written += n
	if err == nil {
		for _, rec := range tail {
			var m int
			m, err = writeFrame(nw, RecordCommit, EncodeCommit(nil, rec))
			written += m
			if err != nil {
				break
			}
		}
	}
	if err == nil {
		err = nw.Flush()
	}
	if err == nil {
		//trodlint:allow lockhold -- rotation is a deliberate stop-the-world swap; the replacement log must be durable before it can take the live name
		err = nf.Sync()
	}
	if err != nil {
		_ = nf.Close() // already failing; surface the write/sync error, not the cleanup
		os.Remove(tmp)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	// Swap: keep the old generation, then move the new log into place.
	if err := os.Rename(l.path, l.path+".old"); err != nil {
		_ = nf.Close() // already failing; surface the rename error, not the cleanup
		os.Remove(tmp)
		return fmt.Errorf("wal: rotate: %w", err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		// The log name is dangling: the live file is now .old and the new
		// log exists only as .rotate. Appending further records would send
		// acknowledged commits to a file the next recovery (which repairs
		// the swap from .rotate) never reads — poison the log so every
		// later operation fails instead of silently losing durability.
		_ = nf.Close() // the log is being poisoned below; the close error is immaterial
		l.syncErr = fmt.Errorf("wal: rotate: swap failed, log requires recovery: %w", err)
		l.durable.Broadcast()
		return l.syncErr
	}
	syncDirOf(l.path)
	// The outgoing generation was fsynced above and is no longer written;
	// a close error cannot affect durability of acknowledged commits.
	_ = l.f.Close()
	l.f = nf
	l.w = bufio.NewWriterSize(nf, 1<<16)
	l.appended += int64(written)
	l.synced = l.appended
	l.syncs++
	l.rotBytes = int64(written)
	l.rotRecords = 1 + len(tail)
	l.rotations++
	return nil
}

// RepairRotation completes or rolls back a rotation interrupted by a crash:
// if the log is missing but a fully-written .rotate file exists, the rename
// is finished; if both exist, the stale .rotate is removed. Call before
// Replay/Open.
func RepairRotation(path string) {
	tmp := path + ".rotate"
	if _, err := os.Stat(tmp); err != nil {
		return
	}
	if _, err := os.Stat(path); err == nil {
		os.Remove(tmp) // rotation never reached the swap; tmp is stale
		return
	}
	os.Rename(tmp, path)
	syncDirOf(path)
}

// syncDirOf fsyncs the directory containing path so just-renamed files
// survive a crash (best effort; see storage.SyncDir).
func syncDirOf(path string) {
	storage.SyncDir(filepath.Dir(path))
}

// Close flushes and closes the log file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.durable.Broadcast()
	if l.syncErr != nil {
		_ = l.f.Close() // the log is already poisoned; report the sync error
		return l.syncErr
	}
	if err := l.w.Flush(); err != nil {
		_ = l.f.Close() // report the flush error that lost buffered records
		return err
	}
	return l.f.Close()
}

// Record is one recovered WAL record.
type Record struct {
	Type       RecordType
	DDL        string
	Commit     storage.CommitRecord
	Checkpoint Checkpoint
}

// Replay reads the log at path from the beginning and invokes fn for each
// intact record. A corrupt or truncated tail ends replay without error (the
// torn record is discarded, matching standard WAL semantics); corruption in
// the middle of the log is also reported as clean termination since
// everything after an unreadable record is unreachable.
func Replay(path string, fn func(Record) error) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil // no log yet: empty database
		}
		return fmt.Errorf("wal: replay open: %w", err)
	}
	//trodlint:allow durerr -- replay only reads; a close error on a read-only fd cannot lose data
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil // clean EOF or torn header
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		wantCRC := binary.LittleEndian.Uint32(hdr[4:8])
		if size == 0 || size > 1<<30 {
			return nil // implausible length: torn tail
		}
		body := make([]byte, size)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil // torn body
		}
		if crc32.ChecksumIEEE(body) != wantCRC {
			return nil // corrupt tail
		}
		rec := Record{Type: RecordType(body[0])}
		switch rec.Type {
		case RecordDDL:
			rec.DDL = string(body[1:])
		case RecordCommit:
			c, err := DecodeCommit(body[1:])
			if err != nil {
				return fmt.Errorf("wal: bad commit record: %w", err)
			}
			rec.Commit = c
		case RecordCheckpoint:
			cp, err := DecodeCheckpoint(body[1:])
			if err != nil {
				return fmt.Errorf("wal: bad checkpoint record: %w", err)
			}
			rec.Checkpoint = cp
		default:
			return fmt.Errorf("wal: unknown record type %d", rec.Type)
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// errStopReplay aborts Replay early from ReadHead.
var errStopReplay = errors.New("wal: stop replay")

// ReadHead returns the first intact record of the log, or nil when the log
// is missing, empty, or its first record is unreadable. Recovery uses it to
// decide between the snapshot fast path and full replay.
func ReadHead(path string) *Record {
	var head *Record
	_ = Replay(path, func(r Record) error {
		head = &r
		return errStopReplay
	})
	return head
}

// RecordEnds returns the byte offset at which each intact record of the log
// ends, in order. Crash-injection tests use it to map byte offsets to the
// acknowledged-commit prefix a recovery must reproduce.
func RecordEnds(path string) ([]int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ends []int64
	off := int64(0)
	for {
		if off+8 > int64(len(data)) {
			return ends, nil
		}
		size := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		if size == 0 || size > 1<<30 || off+8+size > int64(len(data)) {
			return ends, nil
		}
		if crc32.ChecksumIEEE(data[off+8:off+8+size]) != binary.LittleEndian.Uint32(data[off+4:off+8]) {
			return ends, nil
		}
		off += 8 + size
		ends = append(ends, off)
	}
}

// EncodeCheckpoint appends the binary encoding of a Checkpoint to dst.
func EncodeCheckpoint(dst []byte, cp Checkpoint) []byte {
	dst = binary.AppendUvarint(dst, cp.Seq)
	return appendString(dst, cp.Snapshot)
}

// DecodeCheckpoint parses an EncodeCheckpoint payload.
func DecodeCheckpoint(src []byte) (Checkpoint, error) {
	var cp Checkpoint
	var err error
	off := 0
	if cp.Seq, off, err = readUvarint(src, off); err != nil {
		return cp, err
	}
	if cp.Snapshot, off, err = readString(src, off); err != nil {
		return cp, err
	}
	if off != len(src) {
		return cp, errors.New("wal: trailing bytes in checkpoint record")
	}
	return cp, nil
}

// EncodeCommit appends the binary encoding of a CommitRecord to dst.
//
// Layout: seq, txnID, count, then per change: table, key, op, flags
// (bit0 = has before, bit1 = has after), then the present row images.
func EncodeCommit(dst []byte, rec storage.CommitRecord) []byte {
	dst = binary.AppendUvarint(dst, rec.Seq)
	dst = binary.AppendUvarint(dst, rec.TxnID)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Changes)))
	for _, ch := range rec.Changes {
		dst = appendString(dst, ch.Table)
		dst = appendString(dst, ch.Key)
		dst = append(dst, byte(ch.Op))
		var flags byte
		if ch.Before != nil {
			flags |= 1
		}
		if ch.After != nil {
			flags |= 2
		}
		dst = append(dst, flags)
		if ch.Before != nil {
			dst = value.EncodeRow(dst, ch.Before)
		}
		if ch.After != nil {
			dst = value.EncodeRow(dst, ch.After)
		}
	}
	return dst
}

// DecodeCommit parses an EncodeCommit payload.
func DecodeCommit(src []byte) (storage.CommitRecord, error) {
	var rec storage.CommitRecord
	off := 0
	var err error
	if rec.Seq, off, err = readUvarint(src, off); err != nil {
		return rec, err
	}
	if rec.TxnID, off, err = readUvarint(src, off); err != nil {
		return rec, err
	}
	var n uint64
	if n, off, err = readUvarint(src, off); err != nil {
		return rec, err
	}
	// Each change needs at least 4 payload bytes (two string headers, op,
	// flags), so a count beyond remaining/4 is a corrupt or hostile
	// record; checking before make keeps a crafted frame from forcing a
	// huge allocation.
	if n > uint64(len(src)-off)/4 {
		return rec, errors.New("wal: change count exceeds payload")
	}
	rec.Changes = make([]storage.Change, 0, n)
	for i := uint64(0); i < n; i++ {
		var ch storage.Change
		if ch.Table, off, err = readString(src, off); err != nil {
			return rec, err
		}
		if ch.Key, off, err = readString(src, off); err != nil {
			return rec, err
		}
		if off+2 > len(src) {
			return rec, errors.New("wal: truncated change")
		}
		ch.Op = storage.Op(src[off])
		flags := src[off+1]
		if flags&^3 != 0 {
			return rec, errors.New("wal: unknown change flags")
		}
		off += 2
		if flags&1 != 0 {
			row, used, err := value.DecodeRow(src[off:])
			if err != nil {
				return rec, err
			}
			ch.Before = row
			off += used
		}
		if flags&2 != 0 {
			row, used, err := value.DecodeRow(src[off:])
			if err != nil {
				return rec, err
			}
			ch.After = row
			off += used
		}
		rec.Changes = append(rec.Changes, ch)
	}
	if off != len(src) {
		return rec, errors.New("wal: trailing bytes in commit record")
	}
	return rec, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// readUvarint reads one uvarint in its shortest form, the only one the
// encoders write, so a decoded record re-encodes to the bytes it came from.
func readUvarint(src []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return 0, off, errors.New("wal: bad uvarint")
	}
	var buf [binary.MaxVarintLen64]byte
	if binary.PutUvarint(buf[:], v) != n {
		return 0, off, errors.New("wal: overlong uvarint")
	}
	return v, off + n, nil
}

func readString(src []byte, off int) (string, int, error) {
	n, off, err := readUvarint(src, off)
	if err != nil {
		return "", off, err
	}
	// Compare in uint64 space: converting first would let a length >=
	// 2^63 wrap negative and slip past an int-space check into the slice
	// expression below.
	if n > uint64(len(src)-off) {
		return "", off, errors.New("wal: truncated string")
	}
	return string(src[off : off+int(n)]), off + int(n), nil
}
