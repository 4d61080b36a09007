package main

import (
	"fmt"
	"math/rand"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/sqlexec"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// prov.query is the paper's E2: load synthetic forum provenance through
// provenance.Writer.ApplyBatch (set-up), then time debugging rounds. One
// operation is the section 3.3 needle query followed by the aggregate.

const (
	sqlNeedle = `SELECT Timestamp, ReqId, HandlerName
		FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
		WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
		ORDER BY Timestamp ASC`
	sqlAgg = `SELECT Type, COUNT(*) AS c FROM ForumEvents GROUP BY Type ORDER BY c DESC`

	needleUser, needleForum = "U1", "F2"
)

// provStream is the generated provenance: the same shape as experiments.E2
// (each transaction yields an Executions row and one forum event, reads and
// inserts alternating at random) with one duplicated subscription planted.
type provStream struct {
	events []provenance.Event
	provFacts
}

// provFacts is what the checks need to know about the generated provenance.
type provFacts struct {
	forumEvents int       // rows ForumEvents will hold
	needle      [2]uint64 // the planted pair's transactions, in order
}

func genProvStream(e *env, events int) *provStream {
	rng := rand.New(rand.NewSource(e.seed*7 + 3))
	txns := events / 2
	st := &provStream{events: make([]provenance.Event, 0, events)}
	// The pair sits a few transactions apart somewhere in the middle half.
	first := uint64(txns/4 + rng.Intn(txns/2))
	st.needle = [2]uint64{first, first + 1 + uint64(rng.Intn(8))}
	for t := uint64(1); t <= uint64(txns); t++ {
		user := fmt.Sprintf("U%d", rng.Intn(1000))
		forum := fmt.Sprintf("F%d", rng.Intn(200))
		insert := rng.Intn(2) == 0
		if t == st.needle[0] || t == st.needle[1] {
			user, forum, insert = needleUser, needleForum, true
		} else if user == needleUser && forum == needleForum {
			forum = "F3" // only the planted pair may match the needle query
		}
		req := fmt.Sprintf("R%d", t)
		row := value.Row{value.Int(int64(t)), value.Text(user), value.Text(forum), value.Text("C1")}
		st.events = append(st.events, provenance.Event{
			Kind: provenance.KindTxn,
			Txn: db.TxnTrace{
				TxnID:     t,
				CommitSeq: t,
				Meta:      db.TxMeta{ReqID: req, Handler: "subscribeUser", Func: "DB.insert"},
				Committed: true,
			},
			Logical: t,
		})
		if insert {
			st.events = append(st.events, provenance.Event{
				Kind:    provenance.KindWrite,
				Seq:     t,
				TxnID:   t,
				Change:  storage.Change{Table: "forum_sub", Op: storage.OpInsert, After: row},
				Logical: t,
			})
		} else {
			st.events = append(st.events, provenance.Event{
				Kind: provenance.KindTxn,
				Txn: db.TxnTrace{
					TxnID:     t + 1_000_000_000, // reads get their own transaction ids
					CommitSeq: t,
					Meta:      db.TxMeta{ReqID: req, Handler: "subscribeUser", Func: "isSubscribed"},
					Stmts: []db.StmtTrace{{
						Query: "SELECT id FROM forum_sub WHERE userId = ? AND forum = ?",
						Reads: []db.ReadEvent{{Table: "forum_sub", Row: row}},
					}},
					Committed: true,
				},
				Logical: t,
			})
		}
		st.forumEvents++
	}
	return st
}

type provInst struct {
	e     *env
	st    provFacts
	appDB *db.DB
	prov  *db.DB

	plansBefore, plansAfter db.PlanCacheStats // traced run: plan-cache counters at the traced segment's ends
}

// loadProvenance creates the provenance schema for a forum_sub table and
// applies events through provenance.Writer.ApplyBatch, batch at a time.
func loadProvenance(events []provenance.Event, batch int) (*provInst, error) {
	p := &provInst{prov: db.MustOpenMemory(), appDB: db.MustOpenMemory()}
	if err := p.appDB.ExecScript(`CREATE TABLE forum_sub (id INTEGER PRIMARY KEY, userId TEXT, forum TEXT, course TEXT)`); err != nil {
		return nil, err
	}
	w, err := provenance.Setup(p.prov, p.appDB, provenance.TableMap{"forum_sub": "ForumEvents"})
	if err != nil {
		return nil, err
	}
	for len(events) > 0 {
		n := min(batch, len(events))
		if err := w.ApplyBatch(events[:n]); err != nil {
			return nil, err
		}
		events = events[n:]
	}
	return p, nil
}

func buildProv(e *env) (instance, error) {
	if e.provEvents == nil {
		e.provEvents = genProvStream(e, e.sz.provEvents)
	}
	p, err := loadProvenance(e.provEvents.events, e.sz.provBatch)
	if err != nil {
		return nil, err
	}
	p.e, p.st = e, e.provEvents.provFacts
	return p, nil
}

func (p *provInst) op(c, i int) error {
	res, err := p.prov.Query(sqlNeedle)
	if err != nil {
		return err
	}
	if err := p.checkNeedle(res); err != nil {
		return err
	}
	res, err = p.prov.Query(sqlAgg)
	if err != nil {
		return err
	}
	return p.checkAgg(res)
}

// checkNeedle: exactly the planted pair, in timestamp order.
func (p *provInst) checkNeedle(res *db.Rows) error {
	if len(res.Rows) != 2 {
		return fmt.Errorf("%w: needle query returned %d rows, want the planted pair", errWrongResult, len(res.Rows))
	}
	for k, r := range res.Rows {
		if got, want := r[1].AsText(), fmt.Sprintf("R%d", p.st.needle[k]); got != want {
			return fmt.Errorf("%w: needle row %d is %s, want %s", errWrongResult, k, got, want)
		}
	}
	return nil
}

// checkAgg: the per-type counts add up to every forum event loaded.
func (p *provInst) checkAgg(res *db.Rows) error {
	var sum int64
	for _, r := range res.Rows {
		sum += r[1].AsInt()
	}
	if sum != int64(p.st.forumEvents) {
		return fmt.Errorf("%w: aggregate counts sum to %d, want %d forum events", errWrongResult, sum, p.st.forumEvents)
	}
	return nil
}

func (p *provInst) drain() error { return nil }

func (p *provInst) check(done int) error { return nil } // every round was checked as it returned

func (p *provInst) close() error {
	err := p.prov.Close()
	if cerr := p.appDB.Close(); err == nil {
		err = cerr
	}
	return err
}

func (p *provInst) topSpan() spanName { return spanRound }

func (p *provInst) mark(*tracer) { p.plansBefore = p.prov.PlanCacheStats() }

func (p *provInst) unmark() { p.plansAfter = p.prov.PlanCacheStats() }

// layers replays each round through db.Query one statement at a time and,
// right after, through sqlexec.Executor.Run on precompiled plans inside a
// read-only transaction. A statement takes tens of milliseconds here, so the
// two replays of a round sit side by side in time: the facade's self time is
// their small difference, and minutes of drift between separate passes would
// swamp it.
func (p *provInst) layers(t *tracer, lo, hi int) (*layerReport, error) {
	rep := newLayerReport(hi - lo)
	rep.planCache(p.plansBefore, p.plansAfter)

	store := p.prov.Store()
	var costs sqlCosts
	stmts := []struct {
		sql   string
		run   spanName
		check func(*db.Rows) error
		plan  *sqlexec.Plan
	}{{sqlNeedle, spanRunNeedle, p.checkNeedle, nil}, {sqlAgg, spanRunAgg, p.checkAgg, nil}}
	for k := range stmts {
		plan, err := costs.compile(t, store, stmts[k].sql, lo, false)
		if err != nil {
			return nil, err
		}
		stmts[k].plan = plan
	}
	costs.report(rep)
	for i := lo; i < hi; i++ {
		for _, q := range stmts {
			err := t.timeCall(spanDBCall, spanRound, i, func() error {
				res, err := p.prov.Query(q.sql)
				if err != nil {
					return err
				}
				return q.check(res)
			})
			rep.did(err)
			if err != nil {
				return nil, fmt.Errorf("db replay of round %d: %w", i, err)
			}
			err = t.timeCall(q.run, spanDBCall, i, func() error {
				return inTxn(store, true, func(tx *txn.Txn) error {
					res, err := runPlan(tx, store, q.plan)
					if err != nil {
						return err
					}
					return q.check(res)
				})
			})
			rep.did(err)
			if err != nil {
				return nil, fmt.Errorf("sqlexec replay of round %d: %w", i, err)
			}
		}
	}
	if err := rep.provenanceCosts(p.e); err != nil {
		return nil, err
	}
	rep.storageCensus(store)
	rep.sensorCosts()
	rep.unitCosts(t)
	return rep, nil
}
