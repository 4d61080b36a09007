package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/db"
	"repro/internal/protocol"
	"repro/internal/schema"
	"repro/internal/sqlexec"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// serverMark is the counters' state at one end of the traced segment.
type serverMark struct {
	srv   protocol.Stats
	plans db.PlanCacheStats
	wal   wal.Stats
}

func (s *serverInst) topSpan() spanName { return spanRoundTrip }

func (s *serverInst) counters() serverMark {
	return serverMark{srv: s.srv.Stats(), plans: s.d.PlanCacheStats(), wal: s.d.WALStats()}
}

func (s *serverInst) mark(*tracer) { s.before = s.counters() }

func (s *serverInst) unmark() { s.after = s.counters() }

// layers replays the traced segment's operations one level further down at a
// time: through the db facade in-process, through the wire codec alone,
// through sqlexec inside a bare transaction, through txn and storage
// directly, and the commit records it produced through a fresh WAL.
// Write operations below the facade run on an in-memory clone, so they
// neither touch the WAL nor disturb the durability check.
func (s *serverInst) layers(t *tracer, lo, hi int) (*layerReport, error) {
	rep := newLayerReport(hi - lo)

	// Counters over the traced segment as the two connections ran it.
	b, a := &s.before, &s.after
	rep.values["server_requests"] = float64(a.srv.Requests - b.srv.Requests)
	rep.values["server_busy_rejections"] = float64(a.srv.RejectedBusy - b.srv.RejectedBusy)
	rep.values["server_conflicts"] = float64(a.srv.Conflicts - b.srv.Conflicts)
	rep.planCache(b.plans, a.plans)
	if s.d.Log() != nil {
		// Every server.write operation is one commit.
		rep.values["wal_appends_per_op"] = 1
		rep.values["syncs_per_commit"] = float64(a.wal.Syncs-b.wal.Syncs) / float64(hi-lo)
	}

	var recs []storage.CommitRecord
	capture := s.kind == serverWrite
	if capture {
		s.d.Store().SubscribeCDC(func(r storage.CommitRecord) {
			if capture {
				recs = append(recs, r)
			}
		})
	}

	// db: the same statements in-process, one caller.
	results := make([][]value.Row, hi-lo)
	missed := make([]bool, hi-lo)
	for i := lo; i < hi; i++ {
		before := s.d.PlanCacheStats().Misses
		id := t.begin(0, spanDBCall, spanRoundTrip, i)
		rows, err := s.dbCall(i)
		t.end(0, id)
		rep.did(err)
		if err != nil {
			return nil, fmt.Errorf("db replay of op %d: %w", i, err)
		}
		results[i-lo] = rows
		missed[i-lo] = s.d.PlanCacheStats().Misses != before
	}
	capture = false

	// protocol: the messages the operation puts on the wire, through the
	// codec and framing alone; value: their rows through the row codec.
	var wireBytes int
	var frame bytes.Buffer
	var rowBuf []byte
	for i := lo; i < hi; i++ {
		msgs := s.wireMessages(i, results[i-lo])
		id := t.begin(0, spanCodec, spanRoundTrip, i)
		for _, m := range msgs {
			frame.Reset()
			err := protocol.WriteMessage(&frame, m)
			wireBytes += frame.Len()
			if err == nil {
				_, err = protocol.ReadMessage(&frame, protocol.MaxFrame)
			}
			if err != nil {
				return nil, fmt.Errorf("codec replay of op %d: %w", i, err)
			}
		}
		t.end(0, id)
		id = t.begin(0, spanRowCodec, spanCodec, i)
		for _, m := range msgs {
			if err := rowCodec(&rowBuf, m.Args); err != nil {
				return nil, fmt.Errorf("row codec replay of op %d: %w", i, err)
			}
			for _, row := range m.Rows {
				if err := rowCodec(&rowBuf, row); err != nil {
					return nil, fmt.Errorf("row codec replay of op %d: %w", i, err)
				}
			}
		}
		t.end(0, id)
	}
	rep.values["bytes_per_op"] = float64(wireBytes) / float64(hi-lo)

	// sqlparse, sqlexec and below.
	store := s.d.Store()
	if s.kind == serverWrite {
		clone, err := s.d.CloneAt(store.CurrentSeq())
		if err != nil {
			return nil, err
		}
		defer clone.Close()
		store = clone.Store()
	}
	if err := s.belowFacade(t, rep, store, lo, hi, missed); err != nil {
		return nil, err
	}

	if s.kind == serverWrite {
		if err := s.walReplay(t, rep, recs, lo); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := s.d.Checkpoint(); err != nil {
			return nil, err
		}
		rep.values["checkpoint_ms"] = float64(time.Since(t0)) / 1e6
		rep.storageCensus(s.d.Store())
		took, err := s.reopen()
		if err != nil {
			return nil, fmt.Errorf("reopen: %w", err)
		}
		rep.values["recovery_ms"] = float64(took) / 1e6
		rep.values["recovery_tail_records"] = float64(s.d.Recovery().TailRecords)
	} else {
		rep.storageCensus(s.d.Store())
	}
	rep.sensorCosts()
	rep.unitCosts(t)
	return rep, nil
}

// dbCall runs operation i through the db facade and returns the result rows
// a server would send back.
func (s *serverInst) dbCall(i int) ([]value.Row, error) {
	o := &s.ops[i]
	switch o.kind {
	case opPoint:
		res, err := s.d.Query(sqlPoint, o.id)
		if err != nil {
			return nil, err
		}
		return res.Rows, s.checkPoint(res.Rows, o.id)
	case opAdhoc:
		res, err := s.d.Query(o.sql)
		if err != nil {
			return nil, err
		}
		return res.Rows, s.checkPoint(res.Rows, o.id)
	case opOwner:
		res, err := s.d.Query(sqlOwner, s.owners[o.id])
		if err != nil {
			return nil, err
		}
		return res.Rows, s.checkOwner(res.Rows, o.id)
	case opRMW:
		tx := s.d.Begin()
		res, err := tx.Query(sqlPoint, o.id)
		if err == nil {
			err = s.checkPoint(res.Rows, o.id)
		}
		if err == nil {
			_, err = tx.Exec(sqlUpdate, res.Rows[0][0].AsInt()+1, o.id)
		}
		if err != nil {
			tx.Rollback()
			return nil, err
		}
		if err := tx.Commit(); err != nil {
			return nil, err
		}
		s.ackRMW(o.id)
		return res.Rows, nil
	default: // opInsert
		// The wire run already used ledger id i.
		ledgerID := int64(i + s.e.totalOps())
		if _, err := s.d.Exec(sqlInsert, ledgerID, o.id, int64(1)); err != nil {
			return nil, err
		}
		s.ackInsert(ledgerID)
		return nil, nil
	}
}

// wireMessages lists the request and response messages operation i exchanges.
func (s *serverInst) wireMessages(i int, rows []value.Row) []*protocol.Message {
	o := &s.ops[i]
	query := func(sql string, args ...value.Value) *protocol.Message {
		return &protocol.Message{Type: protocol.MsgQuery, SQL: sql, Args: args}
	}
	result := func(cols []string, rows []value.Row) *protocol.Message {
		return &protocol.Message{Type: protocol.MsgResult, Columns: cols, Rows: rows}
	}
	affected := &protocol.Message{Type: protocol.MsgResult, RowsAffected: 1}
	txState := &protocol.Message{Type: protocol.MsgTxState, TxnID: uint64(i), Seq: uint64(i)}
	switch o.kind {
	case opPoint:
		return []*protocol.Message{query(sqlPoint, value.Int(o.id)), result([]string{"balance"}, rows)}
	case opAdhoc:
		return []*protocol.Message{query(o.sql), result([]string{"balance"}, rows)}
	case opOwner:
		return []*protocol.Message{query(sqlOwner, value.Text(s.owners[o.id])), result([]string{"id", "balance"}, rows)}
	case opRMW:
		return []*protocol.Message{
			{Type: protocol.MsgBegin}, txState,
			query(sqlPoint, value.Int(o.id)), result([]string{"balance"}, rows),
			{Type: protocol.MsgExec, SQL: sqlUpdate, Args: value.Row{rows[0][0], value.Int(o.id)}}, affected,
			{Type: protocol.MsgCommit}, txState,
		}
	default:
		return []*protocol.Message{
			{Type: protocol.MsgExec, SQL: sqlInsert, Args: value.Row{value.Int(int64(i)), value.Int(o.id), value.Int(1)}}, affected,
		}
	}
}

// belowFacade replays the operations through sqlexec.Executor.Run inside a
// bare transaction, then through txn and storage with no SQL at all.
func (s *serverInst) belowFacade(t *tracer, rep *layerReport, store *storage.Store, lo, hi int, missed []bool) error {
	var costs sqlCosts
	fixed := map[string]*sqlexec.Plan{}
	for _, sql := range []string{sqlPoint, sqlOwner, sqlUpdate, sqlInsert} {
		p, err := costs.compile(t, store, sql, lo, false)
		if err != nil {
			return err
		}
		fixed[sql] = p
	}
	// run is one auto-commit statement: a plan with its arguments.
	run := func(readOnly bool, plan *sqlexec.Plan, args ...value.Value) func() error {
		return func() error {
			return inTxn(store, readOnly, func(tx *txn.Txn) error {
				_, err := runPlan(tx, store, plan, args...)
				return err
			})
		}
	}
	ledgerBase := int64(2 * s.e.totalOps())
	for i := lo; i < hi; i++ {
		o := &s.ops[i]
		var stmt func() error
		switch o.kind {
		case opPoint:
			stmt = run(true, fixed[sqlPoint], value.Int(o.id))
		case opAdhoc:
			plan, err := costs.compile(t, store, o.sql, i, missed[i-lo])
			if err != nil {
				return err
			}
			stmt = run(true, plan)
		case opOwner:
			stmt = run(true, fixed[sqlOwner], value.Text(s.owners[o.id]))
		case opRMW:
			stmt = func() error {
				return inTxn(store, false, func(tx *txn.Txn) error {
					res, err := runPlan(tx, store, fixed[sqlPoint], value.Int(o.id))
					if err != nil {
						return err
					}
					if len(res.Rows) != 1 {
						return errWrongResult
					}
					_, err = runPlan(tx, store, fixed[sqlUpdate], value.Int(res.Rows[0][0].AsInt()+1), value.Int(o.id))
					return err
				})
			}
		case opInsert:
			stmt = run(false, fixed[sqlInsert], value.Int(ledgerBase+int64(i)), value.Int(o.id), value.Int(1))
		}
		err := t.timeCall(spanRun, spanDBCall, i, stmt)
		rep.did(err)
		if err != nil {
			return fmt.Errorf("sqlexec replay of op %d: %w", i, err)
		}
	}
	costs.report(rep)

	accounts, ledger := store.Table("accounts"), store.Table("ledger")
	byOwner, err := indexNamed(store, "accounts", "accounts_owner")
	if err != nil {
		return err
	}
	ledgerBase += int64(s.e.totalOps())
	for i := lo; i < hi; i++ {
		o := &s.ops[i]
		var name spanName
		var access func(tx *txn.Txn) error
		switch o.kind {
		case opPoint, opAdhoc:
			name = spanPoint
			access = func(tx *txn.Txn) error {
				_, ok, err := tx.Get("accounts", accountKey(t, name, i, o.id))
				if err == nil && !ok {
					err = errWrongResult
				}
				return err
			}
		case opOwner:
			name = spanIndexScan
			access = func(tx *txn.Txn) error {
				kid := t.begin(0, spanKeyCodec, name, i)
				prefix := byOwner.EncodeIndexPrefix(value.Row{value.Text(s.owners[o.id])})
				t.end(0, kid)
				n := 0
				err := tx.IndexScan(accounts, byOwner, prefix, prefix+"\xff", func(string, value.Row) bool {
					n++
					return n < ownerLimit
				})
				if err == nil && n != ownerLimit {
					err = errWrongResult
				}
				return err
			}
		case opRMW:
			name = spanRMW
			access = func(tx *txn.Txn) error {
				return bump(tx, accounts, accountKey(t, name, i, o.id), 2)
			}
		case opInsert:
			name = spanInsert
			access = func(tx *txn.Txn) error {
				return tx.Insert(ledger, value.Row{value.Int(ledgerBase + int64(i)), value.Int(o.id), value.Int(1)})
			}
		}
		readOnly := o.kind != opRMW && o.kind != opInsert
		err := t.timeCall(name, spanRun, i, func() error { return inTxn(store, readOnly, access) })
		rep.did(err)
		if err != nil {
			return fmt.Errorf("txn replay of op %d: %w", i, err)
		}
	}
	return nil
}

// bump reads the row at key and writes it back with column col one higher.
func bump(tx *txn.Txn, tbl *schema.Table, key string, col int) error {
	row, ok, err := tx.Get(tbl.Name, key)
	if err != nil {
		return err
	}
	if !ok {
		return errWrongResult
	}
	next := row.Clone()
	next[col] = value.Int(row[col].AsInt() + 1)
	return tx.Update(tbl, next)
}

// rowCodec takes one row through value.EncodeRow and value.DecodeRow.
func rowCodec(buf *[]byte, row value.Row) error {
	*buf = value.EncodeRow((*buf)[:0], row)
	_, _, err := value.DecodeRow(*buf)
	return err
}

// accountKey encodes an account's primary key inside a value.key_codec span.
func accountKey(t *tracer, parent spanName, op int, id int64) string {
	kid := t.begin(0, spanKeyCodec, parent, op)
	key := schema.EncodeKeyTuple(value.Row{value.Int(id)})
	t.end(0, kid)
	return key
}

// walReplay appends the commit records the db replay produced to a fresh log
// under the run's own policy, waiting for each to be durable as a lone
// committer does.
func (s *serverInst) walReplay(t *tracer, rep *layerReport, recs []storage.CommitRecord, lo int) error {
	dir, err := s.e.freshDir()
	if err != nil {
		return err
	}
	l, err := wal.Open(filepath.Join(dir, "replay.wal"), s.opts.Sync)
	if err != nil {
		return err
	}
	for k, rec := range recs {
		var lsn int64
		err := t.timeCall(spanWALAppend, spanDBCall, lo+k, func() error {
			var err error
			lsn, err = l.AppendCommitLSN(rec)
			return err
		})
		if err == nil {
			err = t.timeCall(spanWALSync, spanDBCall, lo+k, func() error { return l.WaitDurable(lsn) })
		}
		rep.did(err)
		if err != nil {
			l.Close()
			return fmt.Errorf("wal replay of record %d: %w", k, err)
		}
	}
	if n := len(recs); n > 0 {
		bytes := float64(l.Stats().BytesSinceCheckpoint)
		rep.values["bytes_per_commit"] = bytes / float64(n)
		rep.counts["wal_records"], rep.counts["wal_bytes"] = float64(n), bytes
	}
	return l.Close()
}
