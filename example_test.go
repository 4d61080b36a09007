package trod_test

import (
	"fmt"

	trod "repro"
)

// Example_quickstart is the Figure 2 wiring: a production database, an
// application runtime, a provenance database and the always-on tracer. One
// handler serves a few requests, and every transaction, request and data
// operation is then a row in the SQL-queryable provenance tables.
func Example_quickstart() {
	sys := must(trod.NewSystem(trod.Config{
		Schema:      `CREATE TABLE kv (k TEXT PRIMARY KEY, v INTEGER)`,
		TraceTables: trod.TableMap{"kv": "KvEvents"},
	}))
	defer sys.Close()

	// bump reads the current value in one transaction and writes the next
	// in another.
	sys.App.Register("bump", func(c *trod.Ctx, args trod.Args) (any, error) {
		key := args.String("k")
		var cur *trod.Rows
		if err := c.Txn("readCurrent", func(tx *trod.Tx) (err error) {
			cur, err = tx.Query(`SELECT v FROM kv WHERE k = ?`, key)
			return err
		}); err != nil {
			return nil, err
		}
		if len(cur.Rows) == 0 {
			_, err := c.Exec("insertNew", `INSERT INTO kv VALUES (?, 1)`, key)
			return int64(1), err
		}
		next := cur.Rows[0][0].AsInt() + 1
		_, err := c.Exec("updateExisting", `UPDATE kv SET v = ? WHERE k = ?`, next, key)
		return next, err
	})
	for _, k := range []string{"counter", "counter", "counter", "other"} {
		must(sys.App.Invoke("bump", trod.Args{"k": k}))
	}
	check(sys.Flush())

	query := func(title, sql string) {
		fmt.Printf("== %s ==\n%s\n", title, trod.FormatRows(must(sys.Prov.Query(sql))))
	}
	query("Executions (Table 1)", `SELECT TxnId, Timestamp, HandlerName, ReqId, Func FROM Executions ORDER BY Timestamp`)
	query("KvEvents (Table 2)", `SELECT TxnId, Type, k, v FROM KvEvents ORDER BY EvId`)
	query("Requests", `SELECT ReqId, HandlerName, Status FROM trod_requests ORDER BY Timestamp`)
	query("Who wrote v = 3?", `SELECT E.ReqId, E.HandlerName FROM Executions as E, KvEvents as K
		ON E.TxnId = K.TxnId WHERE K.k = 'counter' AND K.v = 3 AND K.Type = 'Update'`)
	// Output:
	// == Executions (Table 1) ==
	// TxnId  Timestamp  HandlerName  ReqId  Func
	// -----  ---------  -----------  -----  ----
	// 1      2          bump         R1     readCurrent
	// 2      4          bump         R1     insertNew
	// 3      7          bump         R2     readCurrent
	// 4      9          bump         R2     updateExisting
	// 5      12         bump         R3     readCurrent
	// 6      14         bump         R3     updateExisting
	// 7      17         bump         R4     readCurrent
	// 8      19         bump         R4     insertNew
	//
	// == KvEvents (Table 2) ==
	// TxnId  Type    k        v
	// -----  ----    -        -
	// 1      Read    null     null
	// 2      Insert  counter  1
	// 3      Read    counter  1
	// 4      Update  counter  2
	// 4      Read    counter  1
	// 5      Read    counter  2
	// 6      Update  counter  3
	// 6      Read    counter  2
	// 7      Read    null     null
	// 8      Insert  other    1
	//
	// == Requests ==
	// ReqId  HandlerName  Status
	// -----  -----------  ------
	// R1     bump         ok
	// R2     bump         ok
	// R3     bump         ok
	// R4     bump         ok
	//
	// == Who wrote v = 3? ==
	// ReqId  HandlerName
	// -----  -----------
	// R3     bump
}

// must returns v, panicking on err: the examples stop at the first failure.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// printCase prints a §4.1 case study's outcome at each step of TROD's
// treatment: the bug shows in production, provenance locates the culprit
// requests, replay reproduces it faithfully, and the fix passes every
// schedule retroactively.
func printCase(bug string, reproduced, located, replayed, fixValidated bool) {
	fmt.Printf("%s: reproduced=%v located=%v replayed=%v fix-validated=%v\n",
		bug, reproduced, located, replayed, fixValidated)
}
