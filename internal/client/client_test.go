package client

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/server"
)

// startServer serves a fresh in-memory database on a loopback port until
// the test ends.
func startServer(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	d := db.MustOpenMemory()
	cfg.DB = d
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
		d.Close()
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string, opts Options) *Client {
	t.Helper()
	c, err := Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// idleConns reports how many connections sit in c's pool.
func (c *Client) idleConns() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.idle)
}

// pooled reports whether cn sits in c's pool.
func (c *Client) pooled(cn *conn) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, idle := range c.idle {
		if idle == cn {
			return true
		}
	}
	return false
}

// TestSequentialRequestsShareOneConn: requests made one after another reuse
// the pooled connection, so the server admits exactly one.
func TestSequentialRequestsShareOneConn(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, Options{})
	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := c.Exec(`INSERT INTO t VALUES (?, ?)`, i, strings.Repeat("v", i)); err != nil {
			t.Fatal(err)
		}
		res, err := c.Query(`SELECT v FROM t WHERE id = ?`, i)
		if err != nil || len(res.Rows) != 1 || len(res.Rows[0][0].AsText()) != i {
			t.Fatalf("read %d: %+v %v", i, res, err)
		}
	}
	if got := srv.Stats().Accepted; got != 1 {
		t.Fatalf("server accepted %d connections for sequential requests, want 1", got)
	}
}

// TestFrameTooLargeKeepsConnPooled: a request over the frame cap fails
// before any byte is written, so its connection goes back to the pool and
// serves the next request.
func TestFrameTooLargeKeepsConnPooled(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, Options{})
	_, err := c.Query(strings.Repeat(" ", protocol.MaxFrame+1))
	if !errors.Is(err, protocol.ErrFrameTooLarge) {
		t.Fatalf("oversized query: %v, want ErrFrameTooLarge", err)
	}
	if n := c.idleConns(); n != 1 {
		t.Fatalf("%d pooled connections after ErrFrameTooLarge, want 1", n)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats().Accepted; got != 1 {
		t.Fatalf("server accepted %d connections, want the one it had", got)
	}
}

// TestBusyRefusalNotPooled: a connection the server refused as busy is
// closed by the server, so the client must not pool it; once a slot frees,
// the next request dials afresh and succeeds.
func TestBusyRefusalNotPooled(t *testing.T) {
	srv, addr := startServer(t, server.Config{MaxConns: 1, QueueDepth: 1, QueueWait: 20 * time.Millisecond})
	hold, err := Dial(addr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{addr: addr, opts: (&Options{}).withDefaults()}
	defer c.Close()
	if err := c.Ping(); !protocol.IsBusy(err) {
		t.Fatalf("ping while the only slot is held: %v, want busy", err)
	}
	if n := c.idleConns(); n != 0 {
		t.Fatalf("busy-refused connection was pooled (%d idle)", n)
	}
	hold.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.Ping() != nil {
		if time.Now().After(deadline) {
			t.Fatal("no slot freed after the holder closed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := c.idleConns(); n != 1 {
		t.Fatalf("%d pooled connections after a served ping, want 1", n)
	}
	if got := srv.Stats().Accepted; got != 2 {
		t.Fatalf("server accepted %d connections, want the holder and the redial", got)
	}
}

// TestIdleExpiryRedials: a pooled connection idle past MaxConnIdle is
// discarded at borrow time and the request dials a new one.
func TestIdleExpiryRedials(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, Options{MaxConnIdle: time.Minute})
	stale := c.idle[0]
	stale.idleFrom = time.Now().Add(-2 * time.Minute)
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	if c.idleConns() != 1 || c.idle[0] == stale {
		t.Fatal("the expired connection was reused")
	}
	if got := srv.Stats().Accepted; got != 2 {
		t.Fatalf("server accepted %d connections, want 2 (the expired one and the redial)", got)
	}
	stale.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := stale.ReadMessage(0); err == nil {
		t.Fatal("the expired connection is still open")
	}
}

// TestTxPinsOneConn: a transaction keeps the connection Begin took from the
// pool across its statements, other requests meanwhile dial their own, and
// Commit returns the pinned connection to the pool.
func TestTxPinsOneConn(t *testing.T) {
	srv, addr := startServer(t, server.Config{})
	c := dial(t, addr, Options{})
	if _, err := c.Exec(`CREATE TABLE t (id INTEGER PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	tx, err := c.Begin()
	if err != nil {
		t.Fatal(err)
	}
	pinned := tx.cn
	for i := 0; i < 3; i++ {
		if _, err := tx.Exec(`INSERT INTO t VALUES (?)`, i); err != nil {
			t.Fatal(err)
		}
		if err := c.Ping(); err != nil {
			t.Fatal(err)
		}
		if c.pooled(pinned) {
			t.Fatal("the transaction's connection went back to the pool while it was open")
		}
	}
	if res, err := tx.Query(`SELECT COUNT(*) FROM t`); err != nil || res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("read inside the transaction: %+v %v", res, err)
	}
	if got := srv.Stats().Accepted; got != 2 {
		t.Fatalf("server accepted %d connections, want the pinned one and one for the pings", got)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if !c.pooled(pinned) {
		t.Fatal("Commit did not return the pinned connection to the pool")
	}
	if res, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil || res.Rows[0][0].AsInt() != 3 {
		t.Fatalf("committed rows: %+v %v", res, err)
	}
}
