// Package client is the Go client for trod-server: a connection-pooled
// handle speaking internal/protocol over TCP, with autocommit Query/Exec,
// explicit interactive transactions (Begin … Commit/Rollback pinned to one
// pooled connection), Ping, and server Stats.
//
// Server failures come back as *protocol.ServerError; use the protocol
// package's IsConflict/IsBusy/IsTxnExpired helpers to react typedly (retry,
// back off, re-begin). Transport failures invalidate the affected pooled
// connection only — the client redials on demand.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/protocol"
	"repro/internal/span"
	"repro/internal/value"
)

// Options tunes a Client. The zero value is usable.
type Options struct {
	// PoolSize caps idle pooled connections (default 4). Concurrent use
	// beyond the pool dials extra connections that are closed when returned
	// to a full pool.
	PoolSize int
	// DialTimeout bounds connection establishment (default 5s).
	DialTimeout time.Duration
	// RequestTimeout bounds one request/response round trip (default 30s);
	// generous because a request may sit behind the server's admission
	// queue or a group-commit fsync.
	RequestTimeout time.Duration
	// MaxConnIdle discards pooled connections idle longer than this at
	// borrow time (default 1m — below the server's 2m idle disconnect, so a
	// quiet client redials instead of tripping over a session the server
	// already closed). <= 0 keeps the default; set it below the server's
	// -idle-timeout when that is tuned down.
	MaxConnIdle time.Duration
	// MaxFrame caps response frame payloads (default protocol.MaxFrame).
	MaxFrame int
	// Collector, when set, enables client-side span tracing: each traced
	// request records pool-checkout and round-trip spans and propagates its
	// trace ID on the wire, so the server's spans for the same request share
	// the trace. Completed client traces tail-sample into this collector,
	// which hands the kept ones to its sink (span.Collector.SetOnKeep).
	Collector *span.Collector
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.PoolSize <= 0 {
		out.PoolSize = 4
	}
	if out.DialTimeout <= 0 {
		out.DialTimeout = 5 * time.Second
	}
	if out.RequestTimeout <= 0 {
		out.RequestTimeout = 30 * time.Second
	}
	if out.MaxConnIdle <= 0 {
		out.MaxConnIdle = time.Minute
	}
	return out
}

// Result is a query outcome: a result set for reads, RowsAffected for
// writes.
type Result struct {
	Columns      []string
	Rows         []value.Row
	RowsAffected int64
}

// Client is a pooled trod-server client; safe for concurrent use.
type Client struct {
	addr string
	opts Options

	mu     sync.Mutex
	idle   []*conn
	closed bool
}

// conn is one pooled protocol connection; its frame buffers live as long as
// it does.
type conn struct {
	*protocol.Conn
	idleFrom time.Time // when the conn was returned to the pool
}

// Dial connects to a trod-server and verifies liveness with a Ping.
func Dial(addr string, opts Options) (*Client, error) {
	cl := &Client{addr: addr, opts: (&opts).withDefaults()}
	if err := cl.Ping(); err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", addr, err)
	}
	return cl, nil
}

// ErrClosed reports use of a closed client.
var ErrClosed = errors.New("client: closed")

func (c *Client) get() (*conn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	// Borrow the most recently used pooled connection, discarding any that
	// sat idle past MaxConnIdle — the server disconnects quiet sessions, so
	// an aged conn would just hand the caller a spurious transport error.
	var stale []*conn
	var cn *conn
	for n := len(c.idle); n > 0; n = len(c.idle) {
		cand := c.idle[n-1]
		c.idle = c.idle[:n-1]
		if time.Since(cand.idleFrom) < c.opts.MaxConnIdle {
			cn = cand
			break
		}
		stale = append(stale, cand)
	}
	c.mu.Unlock()
	for _, s := range stale {
		s.Close()
	}
	if cn != nil {
		return cn, nil
	}
	nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	return &conn{Conn: protocol.NewConn(nc)}, nil
}

func (c *Client) put(cn *conn) {
	cn.idleFrom = time.Now()
	c.mu.Lock()
	if !c.closed && len(c.idle) < c.opts.PoolSize {
		c.idle = append(c.idle, cn)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	cn.Close()
}

// roundtrip sends req and reads one response on cn. ErrFrameTooLarge is
// local (nothing was written): the connection remains clean and usable.
func (c *Client) roundtrip(cn *conn, req *protocol.Message) (*protocol.Message, error) {
	cn.SetDeadline(time.Now().Add(c.opts.RequestTimeout))
	if werr := cn.WriteMessage(req, protocol.MaxFrame); werr != nil {
		if errors.Is(werr, protocol.ErrFrameTooLarge) {
			return nil, werr // local encoding failure; no bytes on the wire
		}
		// The server rejects not-admitted connections (busy/shutdown) without
		// reading a request and closes them, which can break this write; the
		// typed rejection may still be sitting in the receive buffer.
		if resp, rerr := cn.ReadMessage(c.opts.MaxFrame); rerr == nil && resp.Type == protocol.MsgError {
			return resp, nil
		}
		return nil, werr
	}
	return cn.ReadMessage(c.opts.MaxFrame)
}

// traced starts a client-side span buffer for req when tracing is enabled
// and the request type is worth a trace, stamping the trace context onto the
// request frame. Returns (nil, zero) on the disabled path — no allocations.
func (c *Client) traced(req *protocol.Message) (*span.Buf, time.Time) {
	col := c.opts.Collector
	if !col.Enabled() {
		return nil, time.Time{}
	}
	switch req.Type {
	case protocol.MsgQuery, protocol.MsgExec, protocol.MsgBegin,
		protocol.MsgCommit, protocol.MsgRollback:
	default:
		return nil, time.Time{}
	}
	buf := span.NewBuf(col.NextTraceID(), 0)
	req.TraceID = buf.TraceID
	req.ParentSpan = uint64(span.RootID)
	return buf, time.Now()
}

// offerTrace completes a client-side trace and tail-samples it.
func (c *Client) offerTrace(buf *span.Buf, req *protocol.Message, start time.Time, err error) {
	if buf == nil {
		return
	}
	lat := time.Since(start)
	buf.Finish(start, lat)
	status := "ok"
	switch {
	case protocol.IsConflict(err):
		status = "conflict"
	case err != nil:
		status = "error"
	}
	c.opts.Collector.Offer(&span.Trace{
		TraceID: buf.TraceID,
		Kind:    reqKind(req.Type),
		Status:  status,
		Wall:    lat,
		Start:   start,
		Spans:   buf.Spans(),
	})
}

// reqKind labels client traces by request type.
func reqKind(t protocol.MsgType) string {
	switch t {
	case protocol.MsgQuery:
		return "query"
	case protocol.MsgExec:
		return "exec"
	case protocol.MsgBegin:
		return "begin"
	case protocol.MsgCommit:
		return "commit"
	case protocol.MsgRollback:
		return "rollback"
	default:
		return "other"
	}
}

// do runs one request on a pooled connection. Transport errors discard the
// connection; server errors (MsgError) return it to the pool and surface as
// *protocol.ServerError.
func (c *Client) do(req *protocol.Message) (*protocol.Message, error) {
	buf, start := c.traced(req)
	resp, err := c.doRequest(req, buf)
	if buf != nil {
		c.offerTrace(buf, req, start, err)
	}
	return resp, err
}

func (c *Client) doRequest(req *protocol.Message, buf *span.Buf) (*protocol.Message, error) {
	var t0 time.Time
	if buf != nil {
		t0 = time.Now()
	}
	cn, err := c.get()
	if buf != nil {
		buf.Record(span.StagePoolCheckout, span.RootID, t0, time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	if buf != nil {
		t0 = time.Now()
	}
	resp, err := c.roundtrip(cn, req)
	if buf != nil {
		buf.Record(span.StageRTT, span.RootID, t0, time.Since(t0))
	}
	if err != nil {
		if errors.Is(err, protocol.ErrFrameTooLarge) {
			c.put(cn) // local failure; the connection is untouched
			return nil, err
		}
		cn.Close()
		return nil, err
	}
	if resp.Type == protocol.MsgError {
		if connRefused(resp.Code) {
			cn.Close() // admission refusal: the server closed this conn
		} else {
			c.put(cn) // session-level error: the session is still healthy
		}
		return nil, &protocol.ServerError{Code: resp.Code, Msg: resp.Err}
	}
	c.put(cn)
	return resp, nil
}

// connRefused reports codes the server sends for connections it never
// admitted (and closed right after): pooling such a connection would poison
// the pool with a dead socket.
func connRefused(code protocol.ErrCode) bool {
	return code == protocol.CodeBusy || code == protocol.CodeShutdown
}

func toArgs(args []any) (value.Row, error) {
	row := make(value.Row, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("client: argument %d: %w", i+1, err)
		}
		row[i] = v
	}
	return row, nil
}

func resultFrom(resp *protocol.Message) (*Result, error) {
	if resp.Type != protocol.MsgResult {
		return nil, fmt.Errorf("client: unexpected response type %d", resp.Type)
	}
	return &Result{Columns: resp.Columns, Rows: resp.Rows, RowsAffected: resp.RowsAffected}, nil
}

// Ping checks server liveness over one pooled round trip.
func (c *Client) Ping() error {
	resp, err := c.do(&protocol.Message{Type: protocol.MsgPing})
	if err != nil {
		return err
	}
	if resp.Type != protocol.MsgPong {
		return fmt.Errorf("client: unexpected ping response type %d", resp.Type)
	}
	return nil
}

// Query runs one statement in autocommit mode and returns its result set.
func (c *Client) Query(sql string, args ...any) (*Result, error) {
	row, err := toArgs(args)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(&protocol.Message{Type: protocol.MsgQuery, SQL: sql, Args: row})
	if err != nil {
		return nil, err
	}
	return resultFrom(resp)
}

// Exec is Query for writes and DDL; provided for call-site clarity.
func (c *Client) Exec(sql string, args ...any) (*Result, error) {
	row, err := toArgs(args)
	if err != nil {
		return nil, err
	}
	resp, err := c.do(&protocol.Message{Type: protocol.MsgExec, SQL: sql, Args: row})
	if err != nil {
		return nil, err
	}
	return resultFrom(resp)
}

// Promote asks a replica server to promote itself to a writable primary
// (the operator failover command). Returns the new epoch and the promotion
// point — the replica's applied commit sequence, where the new timeline
// starts.
func (c *Client) Promote() (epoch, seq uint64, err error) {
	resp, err := c.do(&protocol.Message{Type: protocol.MsgPromote})
	if err != nil {
		return 0, 0, err
	}
	if resp.Type != protocol.MsgPromoted {
		return 0, 0, fmt.Errorf("client: unexpected promote response type %d", resp.Type)
	}
	return resp.Epoch, resp.Seq, nil
}

// Stats fetches the server's counters.
func (c *Client) Stats() (protocol.Stats, error) {
	resp, err := c.do(&protocol.Message{Type: protocol.MsgStats})
	if err != nil {
		return protocol.Stats{}, err
	}
	if resp.Type != protocol.MsgStatsResult {
		return protocol.Stats{}, fmt.Errorf("client: unexpected stats response type %d", resp.Type)
	}
	return *resp.Stats, nil
}

// Close closes all pooled connections. In-flight transactions on dedicated
// connections are not waited for; their sessions end server-side when the
// connections close.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	for _, cn := range c.idle {
		cn.Close()
	}
	c.idle = nil
	return nil
}

// Tx is an interactive transaction pinned to one connection. Not safe for
// concurrent use (sessions execute requests serially anyway).
type Tx struct {
	c    *Client
	cn   *conn
	id   uint64
	done bool
}

// Begin opens an interactive transaction on a dedicated pooled connection.
// The server enforces its transaction deadline: an abandoned transaction is
// rolled back server-side and later operations fail with a typed
// txn-expired error.
func (c *Client) Begin() (*Tx, error) {
	req := &protocol.Message{Type: protocol.MsgBegin}
	buf, start := c.traced(req)
	tx, err := c.begin(req, buf)
	if buf != nil {
		c.offerTrace(buf, req, start, err)
	}
	return tx, err
}

func (c *Client) begin(req *protocol.Message, buf *span.Buf) (*Tx, error) {
	var t0 time.Time
	if buf != nil {
		t0 = time.Now()
	}
	cn, err := c.get()
	if buf != nil {
		buf.Record(span.StagePoolCheckout, span.RootID, t0, time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	if buf != nil {
		t0 = time.Now()
	}
	resp, err := c.roundtrip(cn, req)
	if buf != nil {
		buf.Record(span.StageRTT, span.RootID, t0, time.Since(t0))
	}
	if err != nil {
		cn.Close()
		return nil, err
	}
	if resp.Type == protocol.MsgError {
		if connRefused(resp.Code) {
			cn.Close()
		} else {
			c.put(cn)
		}
		return nil, &protocol.ServerError{Code: resp.Code, Msg: resp.Err}
	}
	if resp.Type != protocol.MsgTxState {
		cn.Close()
		return nil, fmt.Errorf("client: unexpected begin response type %d", resp.Type)
	}
	return &Tx{c: c, cn: cn, id: resp.TxnID}, nil
}

// ID returns the server-assigned transaction ID.
func (t *Tx) ID() uint64 { return t.id }

// ErrTxDone reports use of a finished transaction handle.
var ErrTxDone = errors.New("client: transaction already finished")

// do runs one request on the transaction's pinned connection. Server errors
// keep the connection (the session survives; on conflict/expiry the server
// already dropped the transaction); transport errors poison the handle.
func (t *Tx) do(req *protocol.Message) (*protocol.Message, error) {
	if t.done {
		return nil, ErrTxDone
	}
	buf, start := t.c.traced(req)
	resp, err := t.doPinned(req, buf)
	if buf != nil {
		t.c.offerTrace(buf, req, start, err)
	}
	return resp, err
}

func (t *Tx) doPinned(req *protocol.Message, buf *span.Buf) (*protocol.Message, error) {
	var t0 time.Time
	if buf != nil {
		t0 = time.Now()
	}
	resp, err := t.c.roundtrip(t.cn, req)
	if buf != nil {
		buf.Record(span.StageRTT, span.RootID, t0, time.Since(t0))
	}
	if err != nil {
		if errors.Is(err, protocol.ErrFrameTooLarge) {
			return nil, err // local failure; transaction and conn stay live
		}
		t.done = true
		t.cn.Close()
		return nil, err
	}
	if resp.Type == protocol.MsgError {
		return nil, &protocol.ServerError{Code: resp.Code, Msg: resp.Err}
	}
	return resp, nil
}

// finish releases the pinned connection back to the pool.
func (t *Tx) finish() {
	if !t.done {
		t.done = true
		t.c.put(t.cn)
	}
}

// Query runs one statement inside the transaction.
func (t *Tx) Query(sql string, args ...any) (*Result, error) {
	row, err := toArgs(args)
	if err != nil {
		return nil, err
	}
	resp, err := t.do(&protocol.Message{Type: protocol.MsgQuery, SQL: sql, Args: row})
	if err != nil {
		return nil, err
	}
	return resultFrom(resp)
}

// Exec is Query for writes.
func (t *Tx) Exec(sql string, args ...any) (*Result, error) {
	row, err := toArgs(args)
	if err != nil {
		return nil, err
	}
	resp, err := t.do(&protocol.Message{Type: protocol.MsgExec, SQL: sql, Args: row})
	if err != nil {
		return nil, err
	}
	return resultFrom(resp)
}

// Commit commits the transaction. A serialization conflict surfaces as a
// *protocol.ServerError with CodeConflict (check protocol.IsConflict) — the
// transaction is gone server-side and the caller retries from Begin.
func (t *Tx) Commit() (uint64, error) {
	resp, err := t.do(&protocol.Message{Type: protocol.MsgCommit})
	if err != nil {
		var se *protocol.ServerError
		if errors.As(err, &se) {
			t.finish() // session survives; transaction is finished either way
		}
		return 0, err
	}
	t.finish()
	return resp.Seq, nil
}

// Rollback aborts the transaction.
func (t *Tx) Rollback() error {
	_, err := t.do(&protocol.Message{Type: protocol.MsgRollback})
	var se *protocol.ServerError
	if err != nil && !errors.As(err, &se) {
		return err // transport failure; handle already poisoned
	}
	t.finish()
	if protocol.IsCode(err, protocol.CodeTxnState) {
		// The server already dropped the transaction (deadline expiry);
		// rolling back an absent transaction is success for the caller.
		return nil
	}
	return err
}
