package storage

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/schema"
	"repro/internal/value"
)

// This file implements the snapshot codec for the disk-backed regime: a
// deterministic, CRC-checked serialization of a store's full committed state
// (catalog, index definitions, row images, commit sequence). Checkpoints
// write a snapshot and truncate the WAL; recovery loads the newest valid
// snapshot and replays only the WAL tail.
//
// Layout (all integers uvarint unless noted):
//
//	magic "TRODSNP2" (8 bytes)
//	seq, nextTxn
//	ddlCount, per statement: stmt — the DDL positioned at seq, in order
//	tableCount
//	per table, sorted by lowercased name:
//	  name, columnCount, per column: name, kind byte, notNull byte
//	  pkCount, per pk: column position
//	  indexCount, per index: name, colCount, positions..., unique byte
//	  rowCount, per row in key order: key string, EncodeRow image
//	crc32-IEEE over everything above (4 bytes little-endian)
//
// Secondary indexes are not serialized; DecodeSnapshot rebuilds them from
// the row images through the normal CreateIndex backfill, so snapshot and
// live index construction can never diverge.
//
// The DDL at seq ran after commit seq, so the restored store's change log
// starts at seq and a reader there must still be sent it.

// snapMagic identifies and versions the snapshot format.
const snapMagic = "TRODSNP2"

// snapFormatGzip is the file-level format byte: a snapshot file (or
// wire-shipped bootstrap image) starts with it, followed by a gzip stream of
// the raw EncodeSnapshot bytes.
const snapFormatGzip = 0x01

// ErrSnapshotCorrupt reports a snapshot that failed validation (bad magic,
// truncated body, or CRC mismatch). Recovery treats it as "no snapshot" and
// falls back to full WAL replay where possible.
var ErrSnapshotCorrupt = errors.New("storage: snapshot corrupt")

// EncodeSnapshot serializes the committed state at the current sequence and
// returns the snapshot bytes plus the sequence they capture. The encoding is
// deterministic: the same committed state always yields the same bytes.
func (s *Store) EncodeSnapshot() ([]byte, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()

	names := make([]string, 0, len(s.catalog))
	for k := range s.catalog {
		names = append(names, k)
	}
	sort.Strings(names)

	dst := append([]byte(nil), snapMagic...)
	dst = binary.AppendUvarint(dst, s.seq)
	dst = binary.AppendUvarint(dst, s.nextTxn)
	base := sort.Search(len(s.ddl), func(i int) bool { return s.ddl[i].Seq >= s.seq })
	dst = binary.AppendUvarint(dst, uint64(len(s.ddl)-base))
	for _, e := range s.ddl[base:] {
		dst = snapString(dst, e.DDL)
	}
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, tkey := range names {
		tbl := s.catalog[tkey]
		dst = snapString(dst, tbl.Name)
		dst = binary.AppendUvarint(dst, uint64(len(tbl.Columns)))
		for _, c := range tbl.Columns {
			dst = snapString(dst, c.Name)
			dst = append(dst, byte(c.Type))
			if c.NotNull {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(tbl.PKCols)))
		for _, p := range tbl.PKCols {
			dst = binary.AppendUvarint(dst, uint64(p))
		}
		defs := s.indexDef[tkey]
		dst = binary.AppendUvarint(dst, uint64(len(defs)))
		for _, ix := range defs {
			dst = snapString(dst, ix.Name)
			dst = binary.AppendUvarint(dst, uint64(len(ix.Columns)))
			for _, c := range ix.Columns {
				dst = binary.AppendUvarint(dst, uint64(c))
			}
			if ix.Unique {
				dst = append(dst, 1)
			} else {
				dst = append(dst, 0)
			}
		}
		td := s.data[tkey]
		live := 0
		td.rows.Ascend(func(_ string, e *entry) bool {
			if e.visible(s.seq) != nil {
				live++
			}
			return true
		})
		dst = binary.AppendUvarint(dst, uint64(live))
		td.rows.Ascend(func(pk string, e *entry) bool {
			row := e.visible(s.seq)
			if row == nil {
				return true
			}
			dst = snapString(dst, pk)
			dst = value.EncodeRow(dst, row)
			return true
		})
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(dst))
	return append(dst, crc[:]...), s.seq
}

// DecodeSnapshot reconstructs a Store from EncodeSnapshot bytes. The returned
// store reports CurrentSeq equal to the snapshot's sequence and is ready to
// have the WAL tail applied through ApplyCommitted. Validation failures
// return ErrSnapshotCorrupt (wrapped).
func DecodeSnapshot(data []byte) (*Store, error) {
	if len(data) < len(snapMagic)+4 {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSnapshotCorrupt)
	}
	body, crc := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrSnapshotCorrupt)
	}
	src := body[len(snapMagic):]
	off := 0
	seq, off, err := snapUvarint(src, off)
	if err != nil {
		return nil, err
	}
	nextTxn, off, err := snapUvarint(src, off)
	if err != nil {
		return nil, err
	}
	nDDL, off, err := snapUvarint(src, off)
	if err != nil {
		return nil, err
	}
	if nDDL > uint64(len(src)-off) {
		return nil, fmt.Errorf("%w: ddl count exceeds payload", ErrSnapshotCorrupt)
	}
	baseDDL := make([]LogEntry, nDDL)
	for i := range baseDDL {
		baseDDL[i].Seq = seq
		if baseDDL[i].DDL, off, err = snapReadString(src, off); err != nil {
			return nil, err
		}
	}
	nTables, off, err := snapUvarint(src, off)
	if err != nil {
		return nil, err
	}
	dst := NewStore()
	// Rows carry the snapshot sequence and index backfill runs at it.
	dst.seq = seq
	dst.logBase = seq
	// A snapshot holds single-version row images at seq — history below it
	// does not survive encode/decode, however much the source store
	// retained. The history floor therefore rides the seq field: a restored
	// store answers time travel from the checkpoint sequence up, and
	// BeginAt/replay below that fail typed (ErrHistoryTruncated) instead of
	// silently reading rows as missing.
	dst.historyFloor = seq
	dst.nextTxn = nextTxn
	for t := uint64(0); t < nTables; t++ {
		var name string
		if name, off, err = snapReadString(src, off); err != nil {
			return nil, err
		}
		var nCols uint64
		if nCols, off, err = snapUvarint(src, off); err != nil {
			return nil, err
		}
		// Snapshot bytes arrive over the wire during replica bootstrap, so
		// every decoded count is bound-checked against the remaining
		// payload before it sizes an allocation (a column needs at least 3
		// bytes: name header, type, nullability).
		if nCols > uint64(len(src)-off)/3 {
			return nil, fmt.Errorf("%w: column count exceeds payload", ErrSnapshotCorrupt)
		}
		cols := make([]schema.Column, nCols)
		for i := range cols {
			if cols[i].Name, off, err = snapReadString(src, off); err != nil {
				return nil, err
			}
			if off+2 > len(src) {
				return nil, fmt.Errorf("%w: truncated column", ErrSnapshotCorrupt)
			}
			cols[i].Type = value.Kind(src[off])
			cols[i].NotNull = src[off+1] == 1
			off += 2
		}
		var nPK uint64
		if nPK, off, err = snapUvarint(src, off); err != nil {
			return nil, err
		}
		if nPK > uint64(len(src)-off) {
			return nil, fmt.Errorf("%w: pk count exceeds payload", ErrSnapshotCorrupt)
		}
		pk := make([]string, nPK)
		for i := range pk {
			var pos uint64
			if pos, off, err = snapUvarint(src, off); err != nil {
				return nil, err
			}
			if pos >= nCols {
				return nil, fmt.Errorf("%w: pk column out of range", ErrSnapshotCorrupt)
			}
			pk[i] = cols[pos].Name
		}
		tbl, err := schema.NewTable(name, cols, pk)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		if err := dst.CreateTable(tbl, false, nil); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
		}
		var nIdx uint64
		if nIdx, off, err = snapUvarint(src, off); err != nil {
			return nil, err
		}
		if nIdx > uint64(len(src)-off)/3 {
			return nil, fmt.Errorf("%w: index count exceeds payload", ErrSnapshotCorrupt)
		}
		indexes := make([]*schema.Index, nIdx)
		for i := range indexes {
			ix := &schema.Index{Table: name}
			if ix.Name, off, err = snapReadString(src, off); err != nil {
				return nil, err
			}
			var nc uint64
			if nc, off, err = snapUvarint(src, off); err != nil {
				return nil, err
			}
			if nc > uint64(len(src)-off) {
				return nil, fmt.Errorf("%w: index column count exceeds payload", ErrSnapshotCorrupt)
			}
			ix.Columns = make([]int, nc)
			for j := range ix.Columns {
				var pos uint64
				if pos, off, err = snapUvarint(src, off); err != nil {
					return nil, err
				}
				if pos >= nCols {
					return nil, fmt.Errorf("%w: index column out of range", ErrSnapshotCorrupt)
				}
				ix.Columns[j] = int(pos)
			}
			if off >= len(src) {
				return nil, fmt.Errorf("%w: truncated index", ErrSnapshotCorrupt)
			}
			ix.Unique = src[off] == 1
			off++
			indexes[i] = ix
		}
		var nRows uint64
		if nRows, off, err = snapUvarint(src, off); err != nil {
			return nil, err
		}
		tkey := strings.ToLower(name)
		td := dst.data[tkey]
		for i := uint64(0); i < nRows; i++ {
			var key string
			if key, off, err = snapReadString(src, off); err != nil {
				return nil, err
			}
			row, used, err := value.DecodeRow(src[off:])
			if err != nil {
				return nil, fmt.Errorf("%w: %v", ErrSnapshotCorrupt, err)
			}
			// Index backfill reads every indexed column of every row.
			if len(row) != len(cols) {
				return nil, fmt.Errorf("%w: row has %d values for %d columns", ErrSnapshotCorrupt, len(row), len(cols))
			}
			off += used
			td.rows.Set(key, &entry{versions: []version{{seq: seq, row: row}}})
		}
		// Rebuild secondary indexes from the restored rows (backfill at seq).
		for _, ix := range indexes {
			if err := dst.CreateIndex(ix, nil); err != nil {
				return nil, fmt.Errorf("%w: rebuilding index: %v", ErrSnapshotCorrupt, err)
			}
		}
	}
	if off != len(src) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrSnapshotCorrupt, len(src)-off)
	}
	// Rebuilding the catalog logged its statements; the log holds what the
	// image says ran at its base instead.
	dst.ddl = baseDDL
	return dst, nil
}

// CompressSnapshot wraps raw EncodeSnapshot bytes in the compressed file
// format: the gzip format byte followed by a gzip stream. Checkpoint files
// and the replication bootstrap image both ship this form. It compresses at
// gzip.BestSpeed: on a row image the default level spends about seven times
// the CPU for a larger file. The level is not part of the format, so any
// gzip stream behind the format byte loads.
func CompressSnapshot(data []byte) []byte {
	var buf bytes.Buffer
	buf.WriteByte(snapFormatGzip)
	zw, _ := gzip.NewWriterLevel(&buf, gzip.BestSpeed) // a valid level cannot fail
	zw.Write(data)                                     // bytes.Buffer writes cannot fail
	_ = zw.Close()                                     // flushes; same no-fail sink
	return buf.Bytes()
}

// DecompressSnapshot returns the raw EncodeSnapshot bytes behind the file
// format's format byte and gzip stream.
func DecompressSnapshot(data []byte) ([]byte, error) {
	if len(data) == 0 || data[0] != snapFormatGzip {
		return nil, fmt.Errorf("%w: no format byte", ErrSnapshotCorrupt)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data[1:]))
	if err != nil {
		return nil, fmt.Errorf("%w: gzip header: %v", ErrSnapshotCorrupt, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("%w: gzip body: %v", ErrSnapshotCorrupt, err)
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("%w: gzip close: %v", ErrSnapshotCorrupt, err)
	}
	return raw, nil
}

// WriteSnapshotFile writes snapshot bytes to path atomically: a temp file in
// the same directory is synced, read back and renamed into place, so a crash
// leaves either the old snapshot or the new one, never a torn mix. The
// read-back compares a CRC-32 of the file's bytes with one of the bytes
// written, so a file reaches path only if it holds exactly what was
// encoded. The on-disk form is gzip-compressed behind a format byte.
func WriteSnapshotFile(path string, data []byte) error {
	data = CompressSnapshot(data)
	tmp := path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		os.Remove(tmp)
		return err
	}
	back, err := os.ReadFile(tmp)
	if err == nil && crc32.ChecksumIEEE(back) != crc32.ChecksumIEEE(data) {
		err = fmt.Errorf("%w: read-back of %d bytes does not match the %d written", ErrSnapshotCorrupt, len(back), len(data))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: snapshot verify: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: snapshot rename: %w", err)
	}
	SyncDir(filepath.Dir(path))
	return nil
}

// writeSynced creates (or truncates) path, writes data and fsyncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: snapshot write: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close() // already failing; surface the write error, not the cleanup
		return fmt.Errorf("storage: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // already failing; surface the sync error, not the cleanup
		return fmt.Errorf("storage: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("storage: snapshot close: %w", err)
	}
	return nil
}

// LoadSnapshotFile reads and decodes the snapshot file at path.
func LoadSnapshotFile(path string) (*Store, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("storage: snapshot read: %w", err)
	}
	raw, err := DecompressSnapshot(data)
	if err != nil {
		return nil, err
	}
	return DecodeSnapshot(raw)
}

// SyncDir fsyncs a directory so a just-renamed file survives a crash; best
// effort because not every filesystem supports it. Shared by the snapshot
// writer and the WAL's rotation path.
func SyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close() // read-only directory handle; nothing to lose
	}
}

// CheckpointTail runs fn under the store's exclusive lock with the commit
// records whose Seq is greater than from — the WAL tail a checkpoint at
// `from` must preserve. While fn runs no commit can start, so rotating the
// WAL inside fn cannot lose a record that raced the rotation. It fails if
// the change log no longer reaches back to `from` (Vacuum cut past it), in
// which case the caller must leave the WAL untouched.
func (s *Store) CheckpointTail(from uint64, fn func(tail []CommitRecord) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.logBase > from {
		return fmt.Errorf("storage: commit log truncated to %d, cannot collect tail after %d", s.logBase, from)
	}
	tail := make([]CommitRecord, 0, len(s.log)-s.logIndex(from+1))
	for i := s.logIndex(from + 1); i < len(s.log); i++ {
		if s.log[i].Seq > from {
			tail = append(tail, s.log[i])
		}
	}
	return fn(tail)
}

func snapString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func snapUvarint(src []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return 0, off, fmt.Errorf("%w: bad uvarint", ErrSnapshotCorrupt)
	}
	return v, off + n, nil
}

func snapReadString(src []byte, off int) (string, int, error) {
	n, off, err := snapUvarint(src, off)
	if err != nil {
		return "", off, err
	}
	// Compare in uint64 space: converting first would let a length >=
	// 2^63 wrap negative and slip past an int-space check into the slice
	// expression below.
	if n > uint64(len(src)-off) {
		return "", off, fmt.Errorf("%w: truncated string", ErrSnapshotCorrupt)
	}
	return string(src[off : off+int(n)]), off + int(n), nil
}
