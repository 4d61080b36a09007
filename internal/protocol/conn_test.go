package protocol

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// bufferConn is a net.Conn over an in-memory reader and writer that counts
// Write calls. Methods a test does not use stay nil and panic if called.
type bufferConn struct {
	net.Conn
	r      io.Reader
	w      io.Writer
	writes int
}

func (b *bufferConn) Read(p []byte) (int, error) { return b.r.Read(p) }

func (b *bufferConn) Write(p []byte) (int, error) {
	b.writes++
	return b.w.Write(p)
}

// countingWriter counts Write calls.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestOneWritePerFrame pins the syscall the framing saves: every frame,
// request or response, one-off or on a Conn, reaches the writer in exactly
// one Write, large replication frames included; an oversized frame reaches
// it in none.
func TestOneWritePerFrame(t *testing.T) {
	var w countingWriter
	bc := &bufferConn{w: &w.Buffer}
	c := NewConn(bc)
	for _, g := range goldenFrames() {
		w.writes = 0
		if err := WriteMessage(&w, g.msg); err != nil || w.writes != 1 {
			t.Errorf("%s: WriteMessage made %d writes (err %v), want 1", g.name, w.writes, err)
		}
		bc.writes = 0
		if err := c.WriteMessage(g.msg, MaxFrame); err != nil || bc.writes != 1 {
			t.Errorf("%s: Conn.WriteMessage made %d writes (err %v), want 1", g.name, bc.writes, err)
		}
	}
	big := make([]byte, 256<<10)
	batch := &Message{Type: MsgLogBatch, PrimarySeq: 9, Entries: []LogEntry{{Commit: storage.CommitRecord{
		Seq: 9, Changes: []storage.Change{{Table: "t", Key: "k", After: value.Row{value.Bytes(big)}}}}}}}
	chunk := &Message{Type: MsgSnapshotChunk, Data: big, Seq: 9, Last: true}
	for _, m := range []*Message{batch, chunk} {
		w.writes = 0
		if err := WriteMessageLimit(&w, m, MaxReplFrame); err != nil || w.writes != 1 {
			t.Errorf("%v: WriteMessageLimit made %d writes (err %v), want 1", m.Type, w.writes, err)
		}
		bc.writes = 0
		if err := c.WriteMessage(m, MaxReplFrame); err != nil || bc.writes != 1 {
			t.Errorf("%v: Conn.WriteMessage made %d writes (err %v), want 1", m.Type, bc.writes, err)
		}
		w.writes = 0
		if err := WriteMessageLimit(&w, m, 1<<10); !errors.Is(err, ErrFrameTooLarge) || w.writes != 0 {
			t.Errorf("%v over the cap: %d writes (err %v), want 0 and ErrFrameTooLarge", m.Type, w.writes, err)
		}
	}
}

// TestDecodeDoesNotAliasReusedBuffer decodes frame A, then frame B of the
// same shape and size into the same payload buffer, and checks that nothing
// A decoded to changed: a decoded message must own its bytes, because the
// Conn overwrites the buffer with the next frame.
func TestDecodeDoesNotAliasReusedBuffer(t *testing.T) {
	commit := func(s string) storage.CommitRecord {
		return storage.CommitRecord{Seq: 3, TxnID: 4, Changes: []storage.Change{{
			Table: "t" + s, Key: "k" + s, Op: storage.OpUpdate,
			Before: value.Row{value.Text(s), value.Bytes([]byte(s))},
			After:  value.Row{value.Text(s + s), value.Bytes([]byte(s + s))},
		}}}
	}
	pair := func(s string) []*Message {
		return []*Message{
			{Type: MsgQuery, SQL: "SELECT " + s, Args: value.Row{value.Text(s), value.Bytes([]byte(s))}},
			{Type: MsgResult, Columns: []string{"c" + s}, Rows: []value.Row{{value.Text(s), value.Bytes([]byte(s))}}},
			{Type: MsgLogBatch, PrimarySeq: 3, Entries: []LogEntry{{DDL: "CREATE " + s}, {Commit: commit(s)}}},
			{Type: MsgSnapshotChunk, Data: []byte(s), Seq: 3},
			{Type: MsgError, Code: CodeSQL, Err: s},
		}
	}
	as, bs := pair("aaaaaaaa"), pair("bbbbbbbb")
	for i := range as {
		var stream bytes.Buffer
		for _, m := range []*Message{as[i], bs[i]} {
			if err := WriteMessage(&stream, m); err != nil {
				t.Fatal(err)
			}
		}
		c := NewConn(&bufferConn{r: &stream})
		a, err := c.ReadMessage(0)
		if err != nil {
			t.Fatalf("%v: read A: %v", as[i].Type, err)
		}
		bufA := &c.rbuf[:1][0]
		b, err := c.ReadMessage(0)
		if err != nil {
			t.Fatalf("%v: read B: %v", bs[i].Type, err)
		}
		if &c.rbuf[:1][0] != bufA {
			t.Fatalf("%v: B was not read into A's buffer; the test proves nothing", as[i].Type)
		}
		if !reflect.DeepEqual(a, as[i]) {
			t.Errorf("%v: decoding B changed A:\n got %+v\nwant %+v", as[i].Type, a, as[i])
		}
		if !reflect.DeepEqual(b, bs[i]) {
			t.Errorf("%v: B decoded wrong:\n got %+v\nwant %+v", bs[i].Type, b, bs[i])
		}
	}
}

// TestConnDropsGrownBuffers: after a 1 MiB frame each way, the buffers a
// Conn keeps are back under maxKeptBuffer, and a small frame's buffers are
// kept for the next one.
func TestConnDropsGrownBuffers(t *testing.T) {
	var stream bytes.Buffer
	c := NewConn(&bufferConn{r: &stream, w: &stream})
	small := &Message{Type: MsgQuery, SQL: "SELECT 1"}
	huge := &Message{Type: MsgSnapshotChunk, Data: make([]byte, 1<<20)}
	for _, m := range []*Message{small, huge, small} {
		if err := c.WriteMessage(m, MaxReplFrame); err != nil {
			t.Fatal(err)
		}
		if cap(c.wbuf) > maxKeptBuffer {
			t.Fatalf("%v: kept a %d-byte write buffer, cap is %d", m.Type, cap(c.wbuf), maxKeptBuffer)
		}
		got, err := c.ReadMessage(MaxReplFrame)
		if err != nil || got.Type != m.Type {
			t.Fatalf("%v: read back %v, %v", m.Type, got, err)
		}
		if cap(c.rbuf) > maxKeptBuffer {
			t.Fatalf("%v: kept a %d-byte read buffer, cap is %d", m.Type, cap(c.rbuf), maxKeptBuffer)
		}
		if m == small && (cap(c.wbuf) == 0 || cap(c.rbuf) == 0) {
			t.Fatalf("small frame: buffers not kept for reuse (write %d, read %d)", cap(c.wbuf), cap(c.rbuf))
		}
	}
	if c.br.Size() > maxKeptBuffer {
		t.Fatalf("read-ahead buffer of %d bytes exceeds %d", c.br.Size(), maxKeptBuffer)
	}
}
