package storage_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/crashtest"
	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// codecStore builds a random store through the storage API: tables with one-
// or two-column primary keys, unique and non-unique indexes created before
// and after rows exist, NULLs in every nullable column, inserts, updates,
// deletes and dropped tables.
func codecStore(t testing.TB, seed int64) *storage.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := storage.NewStore()
	kinds := []value.Kind{value.KindInt, value.KindText, value.KindFloat, value.KindBool, value.KindBytes}
	type live struct {
		tbl  *schema.Table
		rows map[string]value.Row
	}
	var tables []*live
	randValue := func(k value.Kind, nullable bool) value.Value {
		if nullable && rng.Intn(4) == 0 {
			return value.Null
		}
		switch k {
		case value.KindInt:
			return value.Int(int64(rng.Intn(40)) - 5)
		case value.KindText:
			return value.Text(fmt.Sprintf("s%d", rng.Intn(30)))
		case value.KindFloat:
			return value.Float(float64(rng.Intn(100)) / 4)
		case value.KindBool:
			return value.Bool(rng.Intn(2) == 0)
		default:
			return value.Bytes([]byte{byte(rng.Intn(8)), 0, 0xff})
		}
	}
	randRow := func(tbl *schema.Table) value.Row {
		row := make(value.Row, len(tbl.Columns))
		for i, c := range tbl.Columns {
			row[i] = randValue(c.Type, !c.NotNull)
		}
		return row
	}
	commit := func(ch storage.Change) bool {
		_, err := s.Commit(storage.CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(), Changes: []storage.Change{ch}}, nil)
		return err == nil // a unique-index violation is refused; keep going
	}
	for step := 0; step < 120; step++ {
		r := rng.Intn(24)
		switch {
		case len(tables) == 0 || r == 0:
			cols := make([]schema.Column, 2+rng.Intn(3))
			for i := range cols {
				cols[i] = schema.Column{Name: fmt.Sprintf("c%d", i), Type: kinds[rng.Intn(len(kinds))], NotNull: rng.Intn(5) == 0}
			}
			cols[0].Type = value.KindInt
			pk := []string{"c0"}
			if rng.Intn(3) == 0 {
				pk = append(pk, "c1")
			}
			tbl, err := schema.NewTable(fmt.Sprintf("T%d", step), cols, pk)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.CreateTable(tbl, false, nil); err != nil {
				t.Fatal(err)
			}
			tables = append(tables, &live{tbl: tbl, rows: map[string]value.Row{}})
		case r == 1 || r == 2:
			lt := tables[rng.Intn(len(tables))]
			ncols := 1 + rng.Intn(2)
			ix := &schema.Index{Name: fmt.Sprintf("ix%d", step), Table: lt.tbl.Name, Unique: rng.Intn(2) == 0}
			for i := 0; i < ncols; i++ {
				ix.Columns = append(ix.Columns, 1+rng.Intn(len(lt.tbl.Columns)-1))
			}
			_ = s.CreateIndex(ix, nil) // existing rows may already violate a unique index
		case r == 3 && len(tables) > 1:
			i := rng.Intn(len(tables))
			if err := s.DropTable(tables[i].tbl.Name, false, nil); err != nil {
				t.Fatal(err)
			}
			tables = append(tables[:i], tables[i+1:]...)
		default:
			lt := tables[rng.Intn(len(tables))]
			row := randRow(lt.tbl)
			key := lt.tbl.EncodePrimaryKey(row)
			before, exists := lt.rows[key]
			ch := storage.Change{Table: lt.tbl.Name, Key: key, Op: storage.OpInsert, After: row}
			switch {
			case exists && rng.Intn(3) == 0:
				ch = storage.Change{Table: lt.tbl.Name, Key: key, Op: storage.OpDelete, Before: before}
			case exists:
				ch = storage.Change{Table: lt.tbl.Name, Key: key, Op: storage.OpUpdate, Before: before, After: row}
			}
			if commit(ch) {
				if ch.Op == storage.OpDelete {
					delete(lt.rows, key)
				} else {
					lt.rows[key] = row
				}
			}
		}
	}
	return s
}

// TestSnapshotCodecRoundTripRandomStores: for random stores, the checkpoint
// file's byte path (encode, compress, decompress, decode) restores a store
// StoreDiff-equal to the source that re-encodes to the identical bytes.
// Checkpoints verify only that the file holds the encoder's bytes, so this
// is the property that makes those bytes recoverable.
func TestSnapshotCodecRoundTripRandomStores(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		src := codecStore(t, seed)
		data, seq := src.EncodeSnapshot()
		raw, err := storage.DecompressSnapshot(storage.CompressSnapshot(data))
		if err != nil {
			t.Fatalf("seed %d: decompress: %v", seed, err)
		}
		got, err := storage.DecodeSnapshot(raw)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if got.CurrentSeq() != seq {
			t.Fatalf("seed %d: decoded seq %d, want %d", seed, got.CurrentSeq(), seq)
		}
		if diff := crashtest.StoreDiff(got, src); diff != "" {
			t.Fatalf("seed %d: decoded store differs: %s", seed, diff)
		}
		again, _ := got.EncodeSnapshot()
		if !bytes.Equal(again, data) {
			t.Fatalf("seed %d: re-encoding changed the snapshot bytes", seed)
		}
	}
}

// TestSnapshotFileAtDefaultCompressionLoads: files written before snapshots
// moved to gzip.BestSpeed hold a default-level gzip stream behind the same
// format byte, and must keep loading.
func TestSnapshotFileAtDefaultCompressionLoads(t *testing.T) {
	src := codecStore(t, 7)
	data, seq := src.EncodeSnapshot()
	var buf bytes.Buffer
	buf.WriteByte(storage.CompressSnapshot(nil)[0]) // the format byte
	zw, err := gzip.NewWriterLevel(&buf, gzip.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	zw.Write(data)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.snap")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := storage.LoadSnapshotFile(path)
	if err != nil {
		t.Fatalf("default-level snapshot: %v", err)
	}
	if got.CurrentSeq() != seq {
		t.Fatalf("loaded seq %d, want %d", got.CurrentSeq(), seq)
	}
	if diff := crashtest.StoreDiff(got, src); diff != "" {
		t.Fatal(diff)
	}
}

// snapshotAmplification bounds the bytes DecodeSnapshot may allocate per
// input byte. Every count is checked against the bytes left before it sizes
// anything, so allocation follows the input: a table costs its catalog
// entry and trees, a row its entry and values, an index posting its key.
const snapshotAmplification = 512

// snapshotSlack covers allocations that do not scale with the input: the
// empty store, error values.
const snapshotSlack = 32 << 10

// sealSnapshot frames body as a snapshot image: magic, body, CRC. The fuzz
// target decodes sealed bodies, so mutations reach the parser instead of
// stopping at the checksum.
func sealSnapshot(magic, body []byte) []byte {
	img := append(append([]byte(nil), magic...), body...)
	return binary.LittleEndian.AppendUint32(img, crc32.ChecksumIEEE(img))
}

// FuzzDecodeSnapshot decodes arbitrary snapshot bodies behind a valid magic
// and CRC. No input may panic or allocate more than a fixed multiple of its
// length, and every accepted image must re-encode to a store that decodes
// the same.
func FuzzDecodeSnapshot(f *testing.F) {
	img, _ := storage.NewStore().EncodeSnapshot()
	magic := img[:8]
	f.Add(img[8 : len(img)-4])
	for seed := int64(1); seed <= 6; seed++ {
		img, _ := codecStore(f, seed).EncodeSnapshot()
		f.Add(img[8 : len(img)-4])
	}
	img, _ = baseDDLStore(f).EncodeSnapshot()
	f.Add(img[8 : len(img)-4])
	f.Fuzz(func(t *testing.T, body []byte) {
		in := sealSnapshot(magic, body)
		var st *storage.Store
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, err = storage.DecodeSnapshot(in)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > uint64(snapshotAmplification*len(in)+snapshotSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), n)
		}
		if err != nil {
			return
		}
		out, _ := st.EncodeSnapshot()
		back, err := storage.DecodeSnapshot(out)
		if err != nil {
			t.Fatalf("accepted image re-encodes to one that fails: %v", err)
		}
		if diff := crashtest.StoreDiff(back, st); diff != "" {
			t.Fatalf("accepted image changed through re-encoding: %s", diff)
		}
	})
}

// baseDDLStore is a random store with two DDL statements positioned at its
// current seq, after its last commit.
func baseDDLStore(t testing.TB) *storage.Store {
	t.Helper()
	s := codecStore(t, 3)
	tbl, err := schema.NewTable("late", []schema.Column{{Name: "id", Type: value.KindInt}, {Name: "v", Type: value.KindText}}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "late_v", Table: "late", Columns: []int{1}}, nil); err != nil {
		t.Fatal(err)
	}
	return s
}

// logNames renders change-log entries as DDL text or "commit N".
func logNames(entries []storage.LogEntry) []string {
	var out []string
	for _, e := range entries {
		if e.DDL != "" {
			out = append(out, e.DDL)
		} else {
			out = append(out, fmt.Sprintf("commit %d", e.Seq))
		}
	}
	return out
}

// TestSnapshotCarriesBaseDDL: the DDL positioned at a snapshot's seq ran
// after the last commit the snapshot holds, so a reader at that seq still
// needs it; the restored store's change log starts with it.
func TestSnapshotCarriesBaseDDL(t *testing.T) {
	src := baseDDLStore(t)
	seq := src.CurrentSeq()
	want, err := src.ReadLog(seq, seq)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < 2 {
		t.Fatalf("fixture has %d entries at its seq, want the two late DDL", len(want))
	}
	img, _ := src.EncodeSnapshot()
	got, err := storage.DecodeSnapshot(img)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := got.ReadLog(seq, seq)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(logNames(entries)) != fmt.Sprint(logNames(want)) {
		t.Fatalf("restored log at %d = %q, want %q", seq, logNames(entries), logNames(want))
	}
	if _, err := got.ReadLog(seq-1, seq); !errors.Is(err, storage.ErrLogTruncated) {
		t.Fatalf("read below the restored base: err = %v, want ErrLogTruncated", err)
	}
}

// TestSnapshotRefusesTRODSNP1: the format without the base DDL section is
// not read; its image fails as corrupt, not as a store whose log base is
// unknown.
func TestSnapshotRefusesTRODSNP1(t *testing.T) {
	img, _ := codecStore(t, 4).EncodeSnapshot()
	body := img[8 : len(img)-4]
	_, n1 := binary.Uvarint(body)
	_, n2 := binary.Uvarint(body[n1:])
	// The TRODSNP1 body is the TRODSNP2 body without the DDL count.
	legacy := sealSnapshot([]byte("TRODSNP1"), append(append([]byte(nil), body[:n1+n2]...), body[n1+n2+1:]...))
	if _, err := storage.DecodeSnapshot(legacy); !errors.Is(err, storage.ErrSnapshotCorrupt) {
		t.Fatalf("TRODSNP1 image: err = %v, want ErrSnapshotCorrupt", err)
	}
}
