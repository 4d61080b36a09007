package protocol

import (
	"bytes"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// TestTraceContextRoundTrip: the optional trailing trace context survives the
// wire on every traceable request type, in both the set and unset forms.
func TestTraceContextRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgQuery, MsgExec, MsgBegin, MsgCommit, MsgRollback} {
		m := &Message{Type: typ, TraceID: 0xdeadbeefcafe, ParentSpan: 17}
		if typ == MsgQuery || typ == MsgExec {
			m.SQL = "SELECT 1"
		}
		got := roundtrip(t, m)
		if got.TraceID != 0xdeadbeefcafe || got.ParentSpan != 17 {
			t.Fatalf("%v trace context round trip: got trace=%d parent=%d",
				typ, got.TraceID, got.ParentSpan)
		}

		m.TraceID, m.ParentSpan = 0, 0
		got = roundtrip(t, m)
		if got.TraceID != 0 || got.ParentSpan != 0 {
			t.Fatalf("%v untraced round trip grew context: %+v", typ, got)
		}
	}
}

// TestTraceContextZeroCostWhenAbsent pins the wire-compatibility claim: an
// untraced request encodes to exactly the same bytes as before tracing
// existed — zero overhead, and old peers never see unknown fields.
func TestTraceContextZeroCostWhenAbsent(t *testing.T) {
	encode := func(m *Message) []byte {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	plain := encode(&Message{Type: MsgExec, SQL: "UPDATE t SET v = 1"})
	traced := encode(&Message{Type: MsgExec, SQL: "UPDATE t SET v = 1", TraceID: 1, ParentSpan: 1})
	if len(traced) != len(plain)+2 {
		t.Fatalf("trace context cost: %d bytes traced vs %d plain, want exactly +2 (two 1-byte uvarints)",
			len(traced), len(plain))
	}
	if bytes.Equal(plain, traced) {
		t.Fatal("traced and untraced frames identical")
	}
}

// TestTraceContextTruncatedRejected: a TraceID without its ParentSpan is a
// corrupt frame, not a silent partial decode. So is a trace context whose
// TraceID is zero: no encoder writes one, and its ParentSpan would be lost
// on re-encoding.
func TestTraceContextTruncatedRejected(t *testing.T) {
	payload := []byte{byte(MsgCommit)}
	payload = append(payload, 0x07) // TraceID = 7, then nothing
	if _, err := DecodeMessage(payload); err == nil {
		t.Fatal("truncated trace context accepted")
	}
	if _, err := DecodeMessage([]byte{byte(MsgCommit), 0x00, 0x05}); err == nil {
		t.Fatal("trace context with zero trace ID accepted")
	}
}

// TestLogBatchTracedCommitRoundTrip: replication log entries carry the
// originating request's trace ID, and plain commits stay byte-identical to
// the untraced encoding.
func TestLogBatchTracedCommitRoundTrip(t *testing.T) {
	commit := storage.CommitRecord{Seq: 21, TxnID: 3, Changes: []storage.Change{
		{Table: "t", Key: "k", Op: storage.OpInsert, After: value.Row{value.Int(1)}},
	}}
	batch := roundtrip(t, &Message{Type: MsgLogBatch, PrimarySeq: 21, Entries: []LogEntry{
		{Commit: commit, TraceID: 555},
		{Commit: commit},
	}})
	if len(batch.Entries) != 2 {
		t.Fatalf("entries lost: %+v", batch)
	}
	if batch.Entries[0].TraceID != 555 || batch.Entries[0].Commit.Seq != 21 {
		t.Fatalf("traced entry round trip: %+v", batch.Entries[0])
	}
	if batch.Entries[1].TraceID != 0 || batch.Entries[1].Commit.Seq != 21 {
		t.Fatalf("untraced entry round trip: %+v", batch.Entries[1])
	}

	// A traced-commit entry claiming trace 0 is corrupt: the kind byte says
	// traced, the payload says not.
	payload := []byte{byte(MsgLogBatch), 1, entryCommitTraced, 0}
	if _, err := DecodeMessage(payload); err == nil {
		t.Fatal("traced entry with zero trace ID accepted")
	}
}
