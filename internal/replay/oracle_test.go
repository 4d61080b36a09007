package replay

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/db"
	"repro/internal/provenance"
	"repro/internal/runtime"
	"repro/internal/storage"
	"repro/internal/trace"
)

// The replay oracle runs random multi-request histories in production, with
// requests interleaved at transaction boundaries by a seeded gate (and OCC
// aborts and retries where released transactions overlap) and an untraced
// writer committing between turns. It then re-executes every request and
// checks the engine against what the production change log shows:
//
//   - a faithful replay does not diverge and returns the recorded result;
//   - each step's injected changes are exactly the other commits the log
//     holds between that step's original snapshot and the previous one;
//   - retro over the request alone, with the original handlers, reports no
//     changed result.
//
// Histories touch no DDL: the engine's base is today's catalog, so a DDL
// leg waits for a base rebuilt at the snapshot.

// oracleSeeds is how many histories one run checks. Each repetition under
// -count takes the next block of seeds, so repeated runs cover fresh ones.
const oracleSeeds = 12

var oracleRuns atomic.Int64

const oracleSchema = `
CREATE TABLE item (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER);
CREATE INDEX item_grp ON item (grp);
CREATE TABLE acct (id INTEGER PRIMARY KEY, grp INTEGER, v INTEGER);
CREATE TABLE note (id INTEGER PRIMARY KEY, body TEXT);
`

var oracleTables = provenance.TableMap{"item": "ItemEvents", "acct": "AcctEvents", "note": "NoteEvents"}

// oracleOp is one statement of a generated transaction.
type oracleOp struct {
	kind    string // point, range, empty, insert, add, setgrp, delete, note, count
	table   string // item or acct
	a, b, c int64
}

// run executes the op and appends what it observed to out.
func (o oracleOp) run(tx *db.Tx, out *strings.Builder) error {
	var rows *db.Rows
	var err error
	switch o.kind {
	case "point", "empty":
		rows, err = tx.Query(`SELECT id, grp, v FROM `+o.table+` WHERE id = ?`, o.a)
	case "range":
		rows, err = tx.Query(`SELECT id, v FROM item WHERE grp >= ? AND grp <= ? ORDER BY id`, o.a, o.b)
	case "insert":
		rows, err = tx.Exec(`INSERT INTO `+o.table+` VALUES (?, ?, ?)`, o.a, o.b, o.c)
	case "add":
		rows, err = tx.Exec(`UPDATE `+o.table+` SET v = v + ? WHERE id = ?`, o.b, o.a)
	case "setgrp":
		rows, err = tx.Exec(`UPDATE item SET v = ? WHERE grp = ?`, o.b, o.a)
	case "delete":
		rows, err = tx.Exec(`DELETE FROM `+o.table+` WHERE id = ?`, o.a)
	case "note":
		rows, err = tx.Exec(`INSERT INTO note VALUES (?, ?)`, o.a, fmt.Sprintf("n%d", o.a))
	case "count":
		rows, err = tx.Query(`SELECT COUNT(*) FROM note`)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s%v/%d;", o.kind, rows.Rows, rows.RowsAffected)
	return nil
}

// oracleHistory is a generated workload: each request's transactions.
type oracleHistory struct {
	progs map[string][][]oracleOp
	order []string
}

// genHistory builds 4–7 requests of 1–4 transactions, each mixing point,
// index-range and empty reads with inserts, updates and deletes over a
// small key space, so requests read and write each other's rows.
func genHistory(rng *rand.Rand) *oracleHistory {
	h := &oracleHistory{progs: map[string][][]oracleOp{}}
	fresh := int64(100) // inserts take unused ids, so they never collide
	for r := 0; r < 4+rng.Intn(4); r++ {
		id := fmt.Sprintf("R%d", r+1)
		var prog [][]oracleOp
		for t := 0; t < 1+rng.Intn(4); t++ {
			var txn []oracleOp
			for o := 0; o < 1+rng.Intn(3); o++ {
				table := []string{"item", "acct"}[rng.Intn(2)]
				key := 1 + rng.Int63n(8)
				var op oracleOp
				switch rng.Intn(9) {
				case 0, 1:
					op = oracleOp{kind: "point", table: table, a: key}
				case 2:
					lo := rng.Int63n(4)
					op = oracleOp{kind: "range", a: lo, b: lo + rng.Int63n(2)}
				case 3:
					op = oracleOp{kind: "empty", table: table, a: 1000 + key}
				case 4:
					fresh++
					op = oracleOp{kind: "insert", table: table, a: fresh, b: rng.Int63n(4), c: rng.Int63n(100)}
				case 5:
					op = oracleOp{kind: "add", table: table, a: key, b: 1 + rng.Int63n(9)}
				case 6:
					op = oracleOp{kind: "setgrp", a: rng.Int63n(4), b: rng.Int63n(100)}
				case 7:
					op = oracleOp{kind: "delete", table: table, a: key}
				default:
					fresh++
					op = oracleOp{kind: []string{"note", "count"}[rng.Intn(2)], a: fresh}
				}
				txn = append(txn, op)
			}
			prog = append(prog, txn)
		}
		h.progs[id] = prog
		h.order = append(h.order, id)
	}
	return h
}

// register installs the history's one handler: it runs the request's
// transactions and returns everything they observed.
func (h *oracleHistory) register(app *runtime.App) {
	app.Register("prog", func(c *runtime.Ctx, args runtime.Args) (any, error) {
		var result strings.Builder
		for i, txn := range h.progs[c.ReqID] {
			var out strings.Builder
			err := c.Txn(fmt.Sprintf("t%d", i), func(tx *db.Tx) error {
				out.Reset() // a retried attempt starts over
				for _, op := range txn {
					if err := op.run(tx, &out); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			result.WriteString(out.String())
			result.WriteString("|")
		}
		return result.String(), nil
	})
}

// seededGate interleaves requests at transaction boundaries: every request
// waits at Before until the driver releases it. Once every live request
// waits or has finished, the driver releases a seeded batch of them, so the
// batch's transactions overlap and may abort and retry.
type seededGate struct{ arrive chan waiter }

// waiter is a request held at a transaction boundary.
type waiter struct {
	req     string
	release chan struct{}
}

func (g *seededGate) Before(c *runtime.Ctx, _ string) error {
	w := waiter{c.ReqID, make(chan struct{})}
	g.arrive <- w
	<-w.release
	return nil
}

func (g *seededGate) After(*runtime.Ctx, string, error) {}

// runHistory serves the history on a traced production database and
// returns it with its tracer.
func runHistory(t *testing.T, seed int64, h *oracleHistory) (*db.DB, *trace.Tracer) {
	t.Helper()
	prod, prov := db.MustOpenMemory(), db.MustOpenMemory()
	t.Cleanup(func() { prod.Close(); prov.Close() })
	if err := prod.ExecScript(oracleSchema); err != nil {
		t.Fatal(err)
	}
	for id := int64(1); id <= 8; id++ {
		for _, table := range []string{"item", "acct"} {
			if _, err := prod.Exec(`INSERT INTO `+table+` VALUES (?, ?, ?)`, id, id%4, id*10); err != nil {
				t.Fatal(err)
			}
		}
	}
	app := runtime.New(prod)
	h.register(app)
	tr, err := trace.Attach(app, prov, trace.Config{Tables: oracleTables})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })

	rng := rand.New(rand.NewSource(seed))
	g := &seededGate{arrive: make(chan waiter)}
	app.SetTxnInterceptor(g)
	done := make(chan error, len(h.order))
	for _, id := range h.order {
		go func(id string) {
			_, err := app.InvokeWithReqID(id, "prog", nil)
			done <- err
		}(id)
	}
	var waiting []waiter
	live, running := len(h.order), len(h.order)
	writerID := int64(10_000)
	for live > 0 {
		for running > 0 {
			select {
			case w := <-g.arrive:
				waiting = append(waiting, w)
			case err := <-done:
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				live--
			}
			running--
		}
		if len(waiting) == 0 {
			break
		}
		// The untraced writer commits between turns.
		if rng.Intn(3) == 0 {
			writerID++
			q, arg := []string{
				`UPDATE item SET v = v + 1 WHERE id = ?`,
				`UPDATE acct SET v = v + 1 WHERE id = ?`,
				`INSERT INTO note VALUES (?, 'w')`,
			}[rng.Intn(3)], any(1+rng.Int63n(8))
			if strings.HasPrefix(q, "INSERT") {
				arg = writerID
			}
			if _, err := prod.Exec(q, arg); err != nil {
				t.Fatalf("seed %d: writer: %v", seed, err)
			}
		}
		// Arrival order is the Go scheduler's; the seed alone picks the batch.
		sort.Slice(waiting, func(i, j int) bool { return waiting[i].req < waiting[j].req })
		rng.Shuffle(len(waiting), func(i, j int) { waiting[i], waiting[j] = waiting[j], waiting[i] })
		n := 1 + rng.Intn(len(waiting))
		for _, w := range waiting[:n] {
			close(w.release)
		}
		waiting = waiting[n:]
		running = n
	}
	app.SetTxnInterceptor(nil)
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	return prod, tr
}

// expectedInjections derives, from the production change log alone, the
// foreign changes a faithful replay of reqID must inject before each step.
func expectedInjections(t *testing.T, prod *db.DB, prov *provenance.Writer, reqID string) [][]string {
	t.Helper()
	all, err := prov.ExecutionsForRequest(reqID)
	if err != nil {
		t.Fatal(err)
	}
	own := map[uint64]bool{}
	var committed []provenance.Execution
	for _, e := range all {
		own[e.TxnID] = true
		if e.Committed {
			committed = append(committed, e)
		}
	}
	lo := committed[0].Snapshot
	log, err := prod.Store().ReadLog(lo, prod.Store().CurrentSeq())
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]string, len(committed))
	for k, e := range committed {
		for _, rec := range log {
			if rec.DDL == "" && rec.Seq > lo && rec.Seq <= e.Snapshot && !own[rec.TxnID] {
				out[k] = append(out[k], renderChanges(rec.Changes)...)
			}
		}
		lo = max(lo, e.Snapshot)
	}
	return out
}

func renderChanges(chs []storage.Change) []string {
	out := make([]string, 0, len(chs))
	for _, ch := range chs {
		out = append(out, fmt.Sprintf("%s|%x|%s|%v", strings.ToLower(ch.Table), ch.Key, ch.Op, ch.After))
	}
	return out
}

func TestReplayOracle(t *testing.T) {
	base := oracleRuns.Add(1)*oracleSeeds - oracleSeeds
	for seed := base + 1; seed <= base+oracleSeeds; seed++ {
		h := genHistory(rand.New(rand.NewSource(seed)))
		prod, tr := runHistory(t, seed, h)
		rp := New(prod, tr.Writer())
		for _, id := range h.order {
			req, err := tr.Writer().RequestByID(id)
			if err != nil {
				t.Fatal(err)
			}
			want := expectedInjections(t, prod, tr.Writer(), id)
			report, err := rp.Replay(id, h.register, Options{})
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, id, err)
			}
			if report.Diverged {
				t.Errorf("seed %d %s: replay diverged: %v %+v", seed, id, report.Diffs, report.Steps)
			}
			if got := runtime.ResultJSON(report.Result); report.Err != nil || got != req.Result {
				t.Errorf("seed %d %s: replayed result %s (err %v), recorded %s", seed, id, got, report.Err, req.Result)
			}
			if slices.Contains(report.ForeignWriters, "") {
				t.Errorf("seed %d %s: the untraced writer is named as a foreign request: %q", seed, id, report.ForeignWriters)
			}
			for k, st := range report.Steps {
				if got := strings.Join(renderChanges(st.Injected), " "); k < len(want) && got != strings.Join(want[k], " ") {
					t.Errorf("seed %d %s step %d injected\n  %s\nthe log shows\n  %s", seed, id, k, got, strings.Join(want[k], " "))
				}
			}

			rr, err := rp.Run([]string{id}, h.register, RetroOptions{})
			if err != nil {
				t.Fatalf("seed %d %s: retro: %v", seed, id, err)
			}
			for _, s := range rr.Schedules {
				if out := s.Requests[0]; out.ChangedFromOriginal || out.Err != nil {
					t.Errorf("seed %d %s: retro with the original handler gave %s (err %v), recorded %s",
						seed, id, out.ResultJSON, out.Err, req.Result)
				}
			}
		}
	}
}
