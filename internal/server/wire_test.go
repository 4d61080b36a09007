package server

import (
	"bytes"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/repl"
	"repro/internal/value"
)

// pipeSession serves one session of srv over net.Pipe and returns the
// client end. The session ends, and the test waits for it, at cleanup.
func pipeSession(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	srvEnd, clEnd := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.admit(srvEnd)
	}()
	t.Cleanup(func() {
		clEnd.Close()
		<-done
	})
	return clEnd
}

// readCounter counts the Read calls made on a connection.
type readCounter struct {
	net.Conn
	calls atomic.Int32
}

func (c *readCounter) Read(p []byte) (int, error) {
	c.calls.Add(1)
	return c.Conn.Read(p)
}

// TestFrameLatencyStartsAtFirstByte: the session reads through a buffer, and
// a request's latency still runs from its frame's first byte. The client
// sends the header, stalls 30 ms, then sends the payload; the recorded ping
// latency covers the stall.
//
// The stall starts once the session has stamped the frame's start: the
// session stamps it in the Read that returns the header, before it calls
// Read again for the payload, and over net.Pipe the header's Write returns
// only once that first Read has taken it. A client that started its clock
// when its Write returned on a TCP socket measured from before the session
// was even scheduled to read; on a loaded machine the session stamped later
// than that and recorded less than the stall.
func TestFrameLatencyStartsAtFirstByte(t *testing.T) {
	srv, _ := memServer(t, Config{})
	srvEnd, nc := net.Pipe()
	rc := &readCounter{Conn: srvEnd}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.admit(rc)
	}()
	defer func() {
		nc.Close()
		<-done
	}()
	var frame bytes.Buffer
	if err := protocol.WriteMessage(&frame, &protocol.Message{Type: protocol.MsgPing}); err != nil {
		t.Fatal(err)
	}
	const stall = 30 * time.Millisecond
	raw := frame.Bytes()
	if _, err := nc.Write(raw[:8]); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the session to read the frame's header and ask for more", func() bool {
		return rc.calls.Load() >= 2
	})
	time.Sleep(stall)
	if _, err := nc.Write(raw[8:]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if m, err := protocol.ReadMessage(nc, 0); err != nil || m.Type != protocol.MsgPong {
		t.Fatalf("ping: %v %v", m, err)
	}
	h := srv.latByType[protocol.MsgPing]
	waitFor(t, "the ping's latency to be recorded", func() bool {
		_, _, n := h.Snapshot()
		return n == 1
	})
	if _, sum, _ := h.Snapshot(); sum < stall.Seconds() {
		t.Fatalf("trod_server_request_seconds recorded %.1f ms, want at least the %v stall", sum*1e3, stall)
	}
}

// TestSubscribeHandOffKeepsBufferedAcks: a subscriber that sends its
// subscribe and an ack in one write has both frames land in the session's
// read buffer. The replication source must read the ack from that same
// buffer; a reader of its own would never see it.
func TestSubscribeHandOffKeepsBufferedAcks(t *testing.T) {
	d := db.MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	src := repl.NewSource(d, repl.SourceOptions{Heartbeat: time.Hour})
	if _, err := d.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	seq := d.Store().CurrentSeq()
	srv, err := New(Config{DB: d, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	cl := pipeSession(t, srv)

	var out bytes.Buffer
	for _, m := range []*protocol.Message{
		{Type: protocol.MsgSubscribe, FromSeq: 0},
		{Type: protocol.MsgAck, Seq: seq},
	} {
		if err := protocol.WriteMessage(&out, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl.Write(out.Bytes()); err != nil {
		t.Fatal(err)
	}
	go io.Copy(io.Discard, cl) // the stream the source ships back
	waitFor(t, "the buffered ack to reach SubscriberLags", func() bool {
		lags := srv.Stats().SubscriberLags
		return len(lags) == 1 && lags[0].AckedSeq == seq
	})
}

// pointReadAllocs is the pinned allocation count of one point read over a
// session: the client's frame encode, the server's frame decode, plan-cache
// hit and point read, its response encode, and the client's decode. It
// includes the two deadline timers net.Pipe allocates per request. The
// same loop made 39 allocations with a fresh buffer per frame, a boxed
// argument list and a fresh workflow and request-ID string per request.
const pointReadAllocs = 25

// TestPointReadAllocations pins the garbage one request makes end to end.
func TestPointReadAllocations(t *testing.T) {
	d := db.MustOpenMemory()
	t.Cleanup(func() { d.Close() })
	if _, err := d.Exec(`CREATE TABLE accounts (id INTEGER PRIMARY KEY, balance INTEGER)`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Exec(`INSERT INTO accounts VALUES (7, 700)`); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{DB: d})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Kill)
	cl := protocol.NewConn(pipeSession(t, srv))
	req := &protocol.Message{Type: protocol.MsgQuery,
		SQL: `SELECT balance FROM accounts WHERE id = ?`, Args: value.Row{value.Int(7)}}
	read := func() {
		if err := cl.WriteMessage(req, protocol.MaxFrame); err != nil {
			t.Fatal(err)
		}
		resp, err := cl.ReadMessage(0)
		if err != nil || resp.Type != protocol.MsgResult || len(resp.Rows) != 1 || resp.Rows[0][0].AsInt() != 700 {
			t.Fatalf("point read: %+v %v", resp, err)
		}
	}
	read() // fill the plan cache and both ends' buffers
	allocs := testing.AllocsPerRun(200, read)
	t.Logf("%.1f allocations per point read", allocs)
	if allocs > pointReadAllocs {
		t.Fatalf("%.1f allocations per point read, pinned at %d", allocs, pointReadAllocs)
	}
}
