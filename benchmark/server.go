package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/db"
	"repro/internal/server"
	"repro/internal/value"
	"repro/internal/wal"
)

// The three server.* workloads share one accounts table behind an in-process
// server.New on loopback; each caller holds one connection.

type serverKind int

const (
	serverRead serverKind = iota
	serverWrite
	serverAdhoc
)

const (
	sqlPoint  = `SELECT balance FROM accounts WHERE id = ?`
	sqlOwner  = `SELECT id, balance FROM accounts WHERE owner = ? LIMIT 10`
	sqlUpdate = `UPDATE accounts SET balance = ? WHERE id = ?`
	sqlInsert = `INSERT INTO ledger VALUES (?, ?, ?)`
	sqlAdhoc  = `SELECT balance FROM accounts WHERE id = `

	ownerLimit = 10
	seedBatch  = 5000 // rows per seeding commit
)

type opKind uint8

const (
	opPoint  opKind = iota // sqlPoint
	opOwner                // sqlOwner; id is the owner number
	opAdhoc                // sqlAdhoc + id inlined
	opRMW                  // Begin, sqlPoint, sqlUpdate, Commit
	opInsert               // auto-commit sqlInsert; id is the account
)

type acctOp struct {
	kind opKind
	id   int64
	sql  string // opAdhoc only
}

type serverInst struct {
	kind    serverKind
	e       *env
	opts    db.Options
	d       *db.DB
	srv     *server.Server
	served  chan error
	clients []*client.Client
	ops     []acctOp
	owners  []string

	// The oracle: acknowledged read-modify-writes per account and
	// acknowledged ledger inserts. Callers own disjoint accounts, so incs
	// needs no lock.
	incs     []int64
	rmwAcked atomic.Int64
	insAcked atomic.Int64
	insIDSum atomic.Int64

	before, after serverMark // traced run: counters at the traced segment's ends
}

// balanceOf is the balance the generator seeds for an account.
func (s *serverInst) balanceOf(id int64) int64 {
	return 1000 + (id*7919+s.e.seed)%1000
}

// genServerOps generates the whole operation stream from the seed.
func genServerOps(kind serverKind, e *env) []acctOp {
	rng := rand.New(rand.NewSource(e.seed*1000003 + int64(kind)))
	n := e.totalOps()
	ops := make([]acctOp, n)
	accounts := int64(e.sz.accounts)
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(accounts-1))
	for i := range ops {
		switch kind {
		case serverRead:
			if rng.Intn(100) < 67 {
				ops[i] = acctOp{kind: opPoint, id: rng.Int63n(accounts)}
			} else {
				ops[i] = acctOp{kind: opOwner, id: rng.Int63n(int64(e.sz.owners))}
			}
		case serverAdhoc:
			id := int64(zipf.Uint64())
			ops[i] = acctOp{kind: opAdhoc, id: id, sql: sqlAdhoc + strconv.FormatInt(id, 10)}
		case serverWrite:
			// Caller i%callers runs op i; giving it an id in its own residue
			// class keeps two connections off the same row, so no commit
			// can conflict.
			c := int64(e.callers)
			id := rng.Int63n(accounts/c)*c + int64(i)%c
			if rng.Intn(2) == 0 {
				ops[i] = acctOp{kind: opRMW, id: id}
			} else {
				ops[i] = acctOp{kind: opInsert, id: id}
			}
		}
	}
	return ops
}

func buildServer(e *env, kind serverKind) (instance, error) {
	s := &serverInst{kind: kind, e: e, incs: make([]int64, e.sz.accounts)}
	s.ops = genServerOps(kind, e)
	s.owners = make([]string, e.sz.owners)
	for i := range s.owners {
		s.owners[i] = "U" + strconv.Itoa(i)
	}
	if kind == serverWrite {
		dir, err := e.freshDir()
		if err != nil {
			return nil, err
		}
		// Every operation is one commit, so a checkpoint (and the vacuum
		// HistoryRetention hangs on it) every segOps records puts exactly
		// one in every segment, at the same place on every run. A byte
		// threshold near a segment's log volume would give some segments two
		// and some none.
		s.opts = db.Options{
			Mode:              db.Disk,
			Path:              filepath.Join(dir, "write.wal"),
			Sync:              wal.SyncEachCommit,
			CheckpointRecords: e.segOps,
			HistoryRetention:  e.sz.historyRetention,
		}
	}
	d, err := db.Open(s.opts)
	if err != nil {
		return nil, err
	}
	s.d = d
	if err := s.seed(); err != nil {
		d.Close()
		return nil, err
	}
	if err := s.boot(); err != nil {
		d.Close()
		return nil, err
	}
	return s, nil
}

func (s *serverInst) seed() error {
	if err := s.d.ExecScript(`
		CREATE TABLE accounts (id INTEGER PRIMARY KEY, owner TEXT, balance INTEGER);
		CREATE INDEX accounts_owner ON accounts (owner);
		CREATE TABLE ledger (id INTEGER PRIMARY KEY, account INTEGER, amount INTEGER);`); err != nil {
		return err
	}
	tbl := s.d.Store().Table("accounts")
	n := int64(s.e.sz.accounts)
	for base := int64(0); base < n; base += seedBatch {
		tx := s.d.Begin()
		for id := base; id < base+seedBatch && id < n; id++ {
			row := value.Row{value.Int(id), value.Text(s.owners[id%int64(len(s.owners))]), value.Int(s.balanceOf(id))}
			if err := tx.Inner().Insert(tbl, row); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// boot starts the server on a loopback port and dials one connection per
// caller.
func (s *serverInst) boot() error {
	srv, err := server.New(server.Config{DB: s.d, MaxConns: s.e.callers + 2})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.srv = srv
	s.served = make(chan error, 1)
	go func() { s.served <- srv.Serve(ln) }()
	for c := 0; c < s.e.callers; c++ {
		cl, err := client.Dial(ln.Addr().String(), client.Options{PoolSize: 1})
		if err == nil {
			err = cl.Ping()
		}
		if err != nil {
			s.halt()
			return err
		}
		s.clients = append(s.clients, cl)
	}
	return nil
}

// halt closes the connections and drains the server; it waits for Serve to
// return.
func (s *serverInst) halt() error {
	if s.srv == nil {
		return nil
	}
	for _, cl := range s.clients {
		cl.Close()
	}
	s.clients = nil
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; err == nil && serr != nil {
		err = serr
	}
	s.srv = nil
	return err
}

func (s *serverInst) op(c, i int) error {
	o := &s.ops[i]
	cl := s.clients[c]
	switch o.kind {
	case opPoint:
		res, err := cl.Query(sqlPoint, o.id)
		if err != nil {
			return err
		}
		return s.checkPoint(res.Rows, o.id)
	case opAdhoc:
		res, err := cl.Query(o.sql)
		if err != nil {
			return err
		}
		return s.checkPoint(res.Rows, o.id)
	case opOwner:
		res, err := cl.Query(sqlOwner, s.owners[o.id])
		if err != nil {
			return err
		}
		return s.checkOwner(res.Rows, o.id)
	case opRMW:
		tx, err := cl.Begin()
		if err != nil {
			return err
		}
		res, err := tx.Query(sqlPoint, o.id)
		if err == nil {
			err = s.checkPoint(res.Rows, o.id)
		}
		if err == nil {
			_, err = tx.Exec(sqlUpdate, res.Rows[0][0].AsInt()+1, o.id)
		}
		if err != nil {
			tx.Rollback()
			return err
		}
		if _, err := tx.Commit(); err != nil {
			return err
		}
		s.ackRMW(o.id)
		return nil
	case opInsert:
		if _, err := cl.Exec(sqlInsert, int64(i), o.id, int64(1)); err != nil {
			return err
		}
		s.ackInsert(int64(i))
		return nil
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

func (s *serverInst) ackRMW(id int64) {
	s.incs[id]++
	s.rmwAcked.Add(1)
}

func (s *serverInst) ackInsert(ledgerID int64) {
	s.insAcked.Add(1)
	s.insIDSum.Add(ledgerID)
}

// checkPoint verifies a point read against the seeded balance plus the
// increments acknowledged so far.
func (s *serverInst) checkPoint(rows []value.Row, id int64) error {
	if len(rows) != 1 || len(rows[0]) != 1 {
		return fmt.Errorf("%w: account %d returned %d rows", errWrongResult, id, len(rows))
	}
	if got, want := rows[0][0].AsInt(), s.balanceOf(id)+s.incs[id]; got != want {
		return fmt.Errorf("%w: account %d balance %d, want %d", errWrongResult, id, got, want)
	}
	return nil
}

func (s *serverInst) checkOwner(rows []value.Row, owner int64) error {
	if len(rows) != ownerLimit {
		return fmt.Errorf("%w: owner %d returned %d rows, want %d", errWrongResult, owner, len(rows), ownerLimit)
	}
	for _, r := range rows {
		id := r[0].AsInt()
		if id%int64(len(s.owners)) != owner || r[1].AsInt() != s.balanceOf(id)+s.incs[id] {
			return fmt.Errorf("%w: owner %d got row %v", errWrongResult, owner, r)
		}
	}
	return nil
}

func (s *serverInst) drain() error { return nil }

// reopen stops the server, closes the database and opens it again from its
// files, returning how long close+open took.
func (s *serverInst) reopen() (time.Duration, error) {
	if err := s.halt(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	err := s.d.Close()
	s.d = nil
	if err != nil {
		return 0, err
	}
	d, err := db.Open(s.opts)
	if err != nil {
		return 0, err
	}
	s.d = d
	return time.Since(t0), nil
}

func (s *serverInst) check(done int) error {
	if s.kind != serverWrite {
		return nil // every read was checked as it returned
	}
	if err := s.checkTotals(); err != nil {
		return err
	}
	// Acked-prefix durability: everything acknowledged must still be there
	// after a restart from the files alone.
	if _, err := s.reopen(); err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	if err := s.checkTotals(); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	rows, err := s.d.Query(`SELECT id, balance FROM accounts`)
	if err != nil {
		return err
	}
	if len(rows.Rows) != s.e.sz.accounts {
		return fmt.Errorf("after reopen: %d accounts, want %d", len(rows.Rows), s.e.sz.accounts)
	}
	for _, r := range rows.Rows {
		id := r[0].AsInt()
		if got, want := r[1].AsInt(), s.balanceOf(id)+s.incs[id]; got != want {
			return fmt.Errorf("after reopen: account %d balance %d, want %d", id, got, want)
		}
	}
	return nil
}

// checkTotals compares the tables with the oracle's acknowledged counts.
func (s *serverInst) checkTotals() error {
	var seeded int64
	for id := int64(0); id < int64(s.e.sz.accounts); id++ {
		seeded += s.balanceOf(id)
	}
	rows, err := s.d.Query(`SELECT SUM(balance) FROM accounts`)
	if err != nil {
		return err
	}
	if got, want := rows.Rows[0][0].AsInt(), seeded+s.rmwAcked.Load(); got != want {
		return fmt.Errorf("sum of balances %d, want %d (%d acknowledged increments)", got, want, s.rmwAcked.Load())
	}
	rows, err = s.d.Query(`SELECT COUNT(*), SUM(id) FROM ledger`)
	if err != nil {
		return err
	}
	if got, want := rows.Rows[0][0].AsInt(), s.insAcked.Load(); got != want {
		return fmt.Errorf("ledger holds %d rows, want %d acknowledged inserts", got, want)
	}
	if got, want := rows.Rows[0][1].AsInt(), s.insIDSum.Load(); got != want {
		return fmt.Errorf("ledger ids sum to %d, want %d", got, want)
	}
	return nil
}

func (s *serverInst) close() error {
	err := s.halt()
	if s.d != nil {
		if cerr := s.d.Close(); err == nil {
			err = cerr
		}
		s.d = nil
	}
	return err
}
