package protocol

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

func roundtrip(t *testing.T, m *Message) *Message {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMessage(&buf, m); err != nil {
		t.Fatalf("write %v: %v", m.Type, err)
	}
	got, err := ReadMessage(&buf, 0)
	if err != nil {
		t.Fatalf("read %v: %v", m.Type, err)
	}
	if got.Type != m.Type {
		t.Fatalf("type %v -> %v", m.Type, got.Type)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	q := roundtrip(t, &Message{
		Type: MsgQuery,
		SQL:  "SELECT * FROM t WHERE id = ? AND name = ?",
		Args: value.Row{value.Int(42), value.Text("π — naïve")},
	})
	if q.SQL != "SELECT * FROM t WHERE id = ? AND name = ?" || len(q.Args) != 2 {
		t.Fatalf("query round trip: %+v", q)
	}
	if q.Args[0].AsInt() != 42 || q.Args[1].AsText() != "π — naïve" {
		t.Fatalf("args round trip: %+v", q.Args)
	}

	res := roundtrip(t, &Message{
		Type:    MsgResult,
		Columns: []string{"id", "v"},
		Rows: []value.Row{
			{value.Int(1), value.Text("a")},
			{value.Int(2), value.Null},
			{value.Float(2.5), value.Bool(true)},
		},
		RowsAffected: 7,
	})
	if len(res.Columns) != 2 || len(res.Rows) != 3 || res.RowsAffected != 7 {
		t.Fatalf("result round trip: %+v", res)
	}
	if !res.Rows[1][1].IsNull() || res.Rows[2][0].AsFloat() != 2.5 {
		t.Fatalf("row values: %+v", res.Rows)
	}

	tx := roundtrip(t, &Message{Type: MsgTxState, TxnID: 99, Seq: 1234})
	if tx.TxnID != 99 || tx.Seq != 1234 {
		t.Fatalf("txstate round trip: %+v", tx)
	}

	// Every field gets a distinct value, through the table, so a field the
	// codec skipped or two fields it swapped cannot round-trip.
	want := Stats{SubscriberLags: []SubscriberLag{
		{AckedSeq: 898, LagSeqs: 7, LastAckAgeMs: 120},
		{AckedSeq: 905, LagSeqs: 0, LastAckAgeMs: 4},
	}}
	for i := range StatFields {
		*StatFields[i].Field(&want) = uint64(i+1) << i
	}
	st := roundtrip(t, &Message{Type: MsgStatsResult, Stats: &want})
	if !reflect.DeepEqual(*st.Stats, want) {
		t.Fatalf("stats round trip: got %+v want %+v", *st.Stats, want)
	}
	// A nil Stats is all zeroes on the wire.
	zero := roundtrip(t, &Message{Type: MsgStatsResult})
	if zero.Stats == nil || !reflect.DeepEqual(*zero.Stats, Stats{SubscriberLags: []SubscriberLag{}}) {
		t.Fatalf("nil stats round trip: got %+v", zero.Stats)
	}

	e := roundtrip(t, &Message{Type: MsgError, Code: CodeConflict, Err: "serialization conflict"})
	if e.Code != CodeConflict || e.Err != "serialization conflict" {
		t.Fatalf("error round trip: %+v", e)
	}

	for _, typ := range []MsgType{MsgPing, MsgPong, MsgBegin, MsgCommit, MsgRollback, MsgStats} {
		roundtrip(t, &Message{Type: typ})
	}
}

func TestRoundTripReplicationMessages(t *testing.T) {
	sub := roundtrip(t, &Message{Type: MsgSubscribe, FromSeq: 77, Bootstrap: true})
	if sub.FromSeq != 77 || !sub.Bootstrap {
		t.Fatalf("subscribe round trip: %+v", sub)
	}

	batch := roundtrip(t, &Message{Type: MsgLogBatch, PrimarySeq: 12, Entries: []LogEntry{
		{DDL: "CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)"},
		{Commit: storage.CommitRecord{Seq: 11, TxnID: 5, Changes: []storage.Change{
			{Table: "t", Key: "k1", Op: storage.OpInsert, After: value.Row{value.Int(1), value.Text("a")}},
			{Table: "t", Key: "k2", Op: storage.OpUpdate,
				Before: value.Row{value.Int(2), value.Text("b")},
				After:  value.Row{value.Int(2), value.Text("c")}},
		}}},
	}})
	if batch.PrimarySeq != 12 || len(batch.Entries) != 2 {
		t.Fatalf("log batch round trip: %+v", batch)
	}
	if !batch.Entries[0].IsDDL() || batch.Entries[0].DDL == "" {
		t.Fatalf("DDL entry lost: %+v", batch.Entries[0])
	}
	got := batch.Entries[1].Commit
	if got.Seq != 11 || got.TxnID != 5 || len(got.Changes) != 2 ||
		got.Changes[1].Op != storage.OpUpdate || got.Changes[1].After[1].AsText() != "c" {
		t.Fatalf("commit entry round trip: %+v", got)
	}
	hb := roundtrip(t, &Message{Type: MsgLogBatch, PrimarySeq: 99})
	if hb.PrimarySeq != 99 || len(hb.Entries) != 0 {
		t.Fatalf("heartbeat round trip: %+v", hb)
	}

	chunk := roundtrip(t, &Message{Type: MsgSnapshotChunk, Data: []byte{1, 2, 3, 0, 255}, Seq: 41, Last: true})
	if !bytes.Equal(chunk.Data, []byte{1, 2, 3, 0, 255}) || chunk.Seq != 41 || !chunk.Last {
		t.Fatalf("snapshot chunk round trip: %+v", chunk)
	}
}

func TestLogBatchCraftedCountsRejected(t *testing.T) {
	// A huge claimed entry count must be rejected before allocation.
	payload := []byte{byte(MsgLogBatch)}
	payload = binary.AppendUvarint(payload, 1<<40)
	if _, err := DecodeMessage(payload); err == nil {
		t.Fatal("crafted entry count accepted")
	}
	// An unknown entry kind is corrupt.
	payload = []byte{byte(MsgLogBatch)}
	payload = binary.AppendUvarint(payload, 1)
	payload = append(payload, 7, 0, 0)
	if _, err := DecodeMessage(payload); err == nil {
		t.Fatal("unknown entry kind accepted")
	}
}

func TestCorruptFrameDetected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgQuery, SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] ^= 0x40 // flip a payload bit; CRC must catch it
	_, err := ReadMessage(bytes.NewReader(raw), 0)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("bit flip: %v, want ErrFrameCorrupt", err)
	}
}

func TestTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgQuery, SQL: "SELECT 1"}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, cut := range []int{1, 5, len(raw) - 1} {
		_, err := ReadMessage(bytes.NewReader(raw[:cut]), 0)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: %v, want ErrUnexpectedEOF", cut, err)
		}
	}
	// A clean boundary is a plain EOF (normal disconnect).
	if _, err := ReadMessage(bytes.NewReader(nil), 0); !errors.Is(err, io.EOF) {
		t.Fatalf("empty stream: %v, want io.EOF", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgQuery, SQL: string(make([]byte, 256))}); err != nil {
		t.Fatal(err)
	}
	_, err := ReadMessage(&buf, 64)
	if !errors.Is(err, ErrFrameCorrupt) {
		t.Fatalf("oversized frame: %v, want ErrFrameCorrupt", err)
	}
}

func TestTypedErrorHelpers(t *testing.T) {
	conflict := &ServerError{Code: CodeConflict, Msg: "x"}
	if !IsConflict(conflict) || IsBusy(conflict) || IsTxnExpired(conflict) {
		t.Fatal("conflict classification")
	}
	if !IsBusy(&ServerError{Code: CodeBusy}) {
		t.Fatal("busy classification")
	}
	if !IsTxnExpired(&ServerError{Code: CodeTxnExpired}) {
		t.Fatal("expired classification")
	}
	if IsConflict(errors.New("plain")) {
		t.Fatal("plain errors must not classify")
	}
}

// TestCraftedLengthsDoNotPanic pins the hardening against malicious frames:
// huge uvarint lengths and counts (which would overflow int bound checks or
// size allocations) must decode to errors, never panic — a reachable panic
// here is a remote DoS on trod-server.
func TestCraftedLengthsDoNotPanic(t *testing.T) {
	frame := func(payload []byte) []byte {
		var buf bytes.Buffer
		var hdr [8]byte
		binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
		buf.Write(hdr[:])
		buf.Write(payload)
		return buf.Bytes()
	}
	huge := binary.AppendUvarint(nil, 1<<63) // absurd length/count claim
	cases := [][]byte{
		// MsgQuery with a SQL length near 2^63.
		append(append([]byte{byte(MsgQuery)}, huge...), 'x'),
		// MsgQuery with a sane SQL but an args row claiming 2^63 columns.
		append(append([]byte{byte(MsgQuery), 1, 'q'}, huge...), 1),
		// MsgResult claiming 2^63 columns.
		append(append([]byte{byte(MsgResult)}, huge...), 0),
		// MsgResult with 0 columns and 2^63 rows.
		append(append([]byte{byte(MsgResult), 0}, huge...), 0),
		// MsgError with a huge message length.
		append(append([]byte{byte(MsgError), byte(CodeSQL)}, huge...), 'x'),
	}
	for i, payload := range cases {
		if _, err := ReadMessage(bytes.NewReader(frame(payload)), 0); err == nil {
			t.Errorf("case %d: crafted frame decoded without error", i)
		}
	}
}

// TestWriteMessageRejectsOversizedBeforeWriting: an encoding larger than
// MaxFrame must be refused with ErrFrameTooLarge and write no bytes, so the
// server can answer with a typed error on a still-clean stream.
func TestWriteMessageRejectsOversizedBeforeWriting(t *testing.T) {
	var buf bytes.Buffer
	big := &Message{Type: MsgQuery, SQL: string(make([]byte, MaxFrame+1))}
	if err := WriteMessage(&buf, big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized write = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write leaked %d bytes onto the stream", buf.Len())
	}
}

// TestFailoverMessageRoundTrips covers the failover frames: the replication
// epoch stamped on Subscribe/LogBatch/SnapshotChunk, and the Ack / Promote /
// Promoted messages themselves.
func TestFailoverMessageRoundTrips(t *testing.T) {
	sub := roundtrip(t, &Message{Type: MsgSubscribe, FromSeq: 77, Epoch: 3})
	if sub.FromSeq != 77 || sub.Epoch != 3 || sub.Bootstrap {
		t.Fatalf("subscribe+epoch round trip: %+v", sub)
	}
	ack := roundtrip(t, &Message{Type: MsgAck, Seq: 41, Epoch: 2})
	if ack.Seq != 41 || ack.Epoch != 2 {
		t.Fatalf("ack round trip: %+v", ack)
	}
	promote := roundtrip(t, &Message{Type: MsgPromote, Epoch: 9})
	if promote.Epoch != 9 {
		t.Fatalf("promote round trip: %+v", promote)
	}
	promoted := roundtrip(t, &Message{Type: MsgPromoted, Epoch: 9, Seq: 1234})
	if promoted.Epoch != 9 || promoted.Seq != 1234 {
		t.Fatalf("promoted round trip: %+v", promoted)
	}
	hb := roundtrip(t, &Message{Type: MsgLogBatch, PrimarySeq: 99, Epoch: 4})
	if hb.PrimarySeq != 99 || hb.Epoch != 4 || len(hb.Entries) != 0 {
		t.Fatalf("heartbeat+epoch round trip: %+v", hb)
	}
	chunk := roundtrip(t, &Message{Type: MsgSnapshotChunk, Data: []byte{1, 2}, Seq: 8, Last: true, Epoch: 6})
	if chunk.Epoch != 6 || chunk.Seq != 8 || !chunk.Last || !bytes.Equal(chunk.Data, []byte{1, 2}) {
		t.Fatalf("chunk+epoch round trip: %+v", chunk)
	}
}

// TestTruncatedFailoverPayloadsRejected cuts the new failover frames at
// every payload byte: each strict prefix must decode to an error — never a
// silently-zeroed field and never a panic. Field values are multi-byte
// uvarints so mid-varint cuts are exercised too.
func TestTruncatedFailoverPayloadsRejected(t *testing.T) {
	msgs := []*Message{
		{Type: MsgSubscribe, FromSeq: 1 << 40, Bootstrap: true, Epoch: 1 << 33},
		{Type: MsgAck, Seq: 1 << 40, Epoch: 1 << 33},
		{Type: MsgPromote, Epoch: 1 << 33},
		{Type: MsgPromoted, Epoch: 1 << 33, Seq: 1 << 40},
		{Type: MsgLogBatch, PrimarySeq: 1 << 40, Epoch: 1 << 33},
		{Type: MsgStatsResult, Stats: &Stats{Epoch: 1 << 33, Fenced: 1,
			SubscriberLags: []SubscriberLag{{AckedSeq: 1 << 40, LagSeqs: 9, LastAckAgeMs: 1 << 20}}}},
	}
	for _, m := range msgs {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("%v: encode: %v", m.Type, err)
		}
		payload := buf.Bytes()[8:] // strip the length+CRC header
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeMessage(payload[:cut]); err == nil {
				t.Errorf("%v: truncated payload (%d of %d bytes) decoded cleanly", m.Type, cut, len(payload))
			}
		}
	}
}

// TestStatsCraftedSubscriberCountRejected pins the uint64-space bound check
// on the subscriber-lag list: a count the remaining payload cannot hold must
// be rejected before allocation.
func TestStatsCraftedSubscriberCountRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, &Message{Type: MsgStatsResult}); err != nil {
		t.Fatal(err)
	}
	payload := buf.Bytes()[8:]
	// The encoding ends with the subscriber count (0 for empty stats);
	// replace it with an absurd claim followed by a few real bytes.
	payload = append(payload[:len(payload)-1], binary.AppendUvarint(nil, 1<<40)...)
	payload = append(payload, 1, 2, 3)
	if _, err := DecodeMessage(payload); err == nil {
		t.Fatal("crafted subscriber count accepted")
	}
}

// TestStatFieldsCoverStats: every uint64 field of Stats has exactly one
// descriptor, so a field added without one fails here instead of silently
// missing from the wire, trod-query -stats and /metrics. Keys and families
// are unique and follow the naming conventions.
func TestStatFieldsCoverStats(t *testing.T) {
	var s Stats
	v := reflect.ValueOf(&s).Elem()
	covered := map[*uint64]int{}
	for i := range StatFields {
		covered[StatFields[i].Field(&s)]++
	}
	fields := 0
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Uint64 {
			continue
		}
		fields++
		if n := covered[v.Field(i).Addr().Interface().(*uint64)]; n != 1 {
			t.Errorf("Stats.%s has %d descriptors, want 1", v.Type().Field(i).Name, n)
		}
	}
	if fields != len(StatFields) {
		t.Errorf("%d descriptors for %d uint64 fields", len(StatFields), fields)
	}
	keys, families := map[string]bool{}, map[string]bool{}
	for _, f := range StatFields {
		if f.Key == "" || keys[f.Key] {
			t.Errorf("stats key %q empty or duplicated", f.Key)
		}
		if families[f.Family] || !strings.HasPrefix(f.Family, "trod_") {
			t.Errorf("family %q duplicated or outside trod_", f.Family)
		}
		if strings.HasSuffix(f.Family, "_total") != (f.Kind == StatCounter) {
			t.Errorf("family %q: counters, and only counters, end in _total", f.Family)
		}
		if f.Help == "" {
			t.Errorf("family %q has no help text", f.Family)
		}
		keys[f.Key], families[f.Family] = true, true
	}
}

// TestFailoverErrorHelpers pins the typed classification of the two new
// error codes.
func TestFailoverErrorHelpers(t *testing.T) {
	if !IsFenced(&ServerError{Code: CodeFenced}) || IsFenced(&ServerError{Code: CodeReadOnly}) {
		t.Fatal("fenced classification")
	}
	if !IsQuorumUnavailable(&ServerError{Code: CodeQuorumUnavailable}) || IsQuorumUnavailable(errors.New("plain")) {
		t.Fatal("quorum-unavailable classification")
	}
	if CodeFenced.String() != "fenced" || CodeQuorumUnavailable.String() != "quorum-unavailable" {
		t.Fatalf("code strings: %q %q", CodeFenced.String(), CodeQuorumUnavailable.String())
	}
}

// TestReadOnlyTxnErrorHelpers pins the wire code for writes inside declared
// read-only snapshot transactions, distinct from the replica's read-only
// session code.
func TestReadOnlyTxnErrorHelpers(t *testing.T) {
	if !IsReadOnlyTxn(&ServerError{Code: CodeReadOnlyTxn}) || IsReadOnlyTxn(&ServerError{Code: CodeReadOnly}) {
		t.Fatal("read-only-txn classification")
	}
	if CodeReadOnlyTxn.String() != "read-only-txn" {
		t.Fatalf("code string: %q", CodeReadOnlyTxn.String())
	}
}
