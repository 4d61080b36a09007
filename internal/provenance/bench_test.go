package provenance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/db"
	"repro/internal/storage"
	"repro/internal/value"
)

// BenchmarkE2Provenance is E2 over provenance as the tracer stores it:
// 200k events applied through Writer.ApplyBatch in 1024-event batches, then
// the section 3.3 needle query and the per-type GROUP BY through db.Query.
// The executor's own E2 benchmarks insert their rows one table at a time, so
// only this one sees where ApplyBatch places the rows it stores. Run it with
// -cpu 1,2 to see single-core cost and the partitioned speed-up apart.
func BenchmarkE2Provenance(b *testing.B) {
	prov := e2Provenance(b, 200_000)
	queries := []struct {
		name, sql string
		rows      int
	}{
		{"needle", `SELECT Timestamp, ReqId, HandlerName
			FROM Executions as E, ForumEvents as F ON E.TxnId = F.TxnId
			WHERE F.UserId = 'U1' AND F.Forum = 'F2' AND F.Type = 'Insert'
			ORDER BY Timestamp ASC`, 2},
		{"groupby", `SELECT Type, COUNT(*) AS c FROM ForumEvents GROUP BY Type ORDER BY c DESC`, 2},
	}
	for _, q := range queries {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := prov.Query(q.sql)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != q.rows {
					b.Fatalf("%s returned %d rows, want %d", q.name, len(res.Rows), q.rows)
				}
			}
		})
	}
}

// e2Provenance loads E2's forum provenance: each transaction stores an
// Executions row and one ForumEvents row, a write event or a read by a
// second transaction, at random, and transactions 1000 and 1003 insert the
// one duplicated subscription the needle query finds.
func e2Provenance(b *testing.B, events int) *db.DB {
	b.Helper()
	prov, appDB := db.MustOpenMemory(), db.MustOpenMemory()
	b.Cleanup(func() { prov.Close(); appDB.Close() })
	if err := appDB.ExecScript(`CREATE TABLE forum_sub (id INTEGER PRIMARY KEY, userId TEXT, forum TEXT, course TEXT)`); err != nil {
		b.Fatal(err)
	}
	w, err := Setup(prov, appDB, TableMap{"forum_sub": "ForumEvents"})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	out := make([]Event, 0, events)
	for t := uint64(1); len(out) < events; t++ {
		user, forum, insert := fmt.Sprintf("U%d", rng.Intn(1000)), fmt.Sprintf("F%d", rng.Intn(200)), rng.Intn(2) == 0
		if t == 1000 || t == 1003 {
			user, forum, insert = "U1", "F2", true
		} else if user == "U1" && forum == "F2" {
			forum = "F3"
		}
		req, row := fmt.Sprintf("R%d", t), value.Row{value.Int(int64(t)), value.Text(user), value.Text(forum), value.Text("C1")}
		out = append(out, Event{Kind: KindTxn, Logical: t, Txn: db.TxnTrace{
			TxnID: t, CommitSeq: t, Committed: true,
			Meta: db.TxMeta{ReqID: req, Handler: "subscribeUser", Func: "DB.insert"},
		}})
		if insert {
			out = append(out, Event{Kind: KindWrite, Logical: t, Seq: t, TxnID: t,
				Change: storage.Change{Table: "forum_sub", Op: storage.OpInsert, After: row}})
			continue
		}
		out = append(out, Event{Kind: KindTxn, Logical: t, Txn: db.TxnTrace{
			TxnID: t + 1_000_000_000, CommitSeq: t, Committed: true,
			Meta: db.TxMeta{ReqID: req, Handler: "subscribeUser", Func: "isSubscribed"},
			Stmts: []db.StmtTrace{{
				Query: "SELECT id FROM forum_sub WHERE userId = ? AND forum = ?",
				Reads: []db.ReadEvent{{Table: "forum_sub", Row: row}},
			}},
		}})
	}
	for len(out) > 0 {
		n := min(1024, len(out))
		if err := w.ApplyBatch(out[:n]); err != nil {
			b.Fatal(err)
		}
		out = out[n:]
	}
	return prov
}
