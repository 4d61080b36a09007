package sqlexec

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/sqlparse"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// harness bundles a store with statement helpers for tests.
type harness struct {
	t     *testing.T
	store *storage.Store
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	return &harness{t: t, store: storage.NewStore()}
}

// ddl applies CREATE TABLE / CREATE INDEX statements.
func (h *harness) ddl(src string) {
	h.t.Helper()
	stmts, err := sqlparse.ParseAll(src)
	if err != nil {
		h.t.Fatalf("parse ddl: %v", err)
	}
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *sqlparse.CreateTable:
			tbl, err := tableFromAST(s)
			if err != nil {
				h.t.Fatal(err)
			}
			if err := h.store.CreateTable(tbl, s.IfNotExists, nil); err != nil {
				h.t.Fatal(err)
			}
		case *sqlparse.CreateIndex:
			tbl := h.store.Table(s.Table)
			cols := make([]int, len(s.Columns))
			for i, c := range s.Columns {
				cols[i] = tbl.ColumnIndex(c)
			}
			if err := h.store.CreateIndex(&schema.Index{Name: s.Name, Table: s.Table, Columns: cols, Unique: s.Unique}, nil); err != nil {
				h.t.Fatal(err)
			}
		default:
			h.t.Fatalf("not ddl: %T", stmt)
		}
	}
}

// tableFromAST mirrors what the db facade does (duplicated here to keep the
// package test self-contained).
func tableFromAST(ct *sqlparse.CreateTable) (*schema.Table, error) {
	cols := make([]schema.Column, len(ct.Columns))
	var pk []string
	for i, c := range ct.Columns {
		cols[i] = schema.Column{Name: c.Name, Type: c.Type, NotNull: c.NotNull}
		if c.PrimaryKey {
			pk = append(pk, c.Name)
		}
	}
	if len(ct.PrimaryKey) > 0 {
		pk = ct.PrimaryKey
	}
	return schema.NewTable(ct.Name, cols, pk)
}

// exec runs one statement in its own transaction, committing it.
func (h *harness) exec(src string, args ...any) *Result {
	h.t.Helper()
	res, err := h.tryExec(src, args...)
	if err != nil {
		h.t.Fatalf("exec %q: %v", src, err)
	}
	return res
}

func (h *harness) tryExec(src string, args ...any) (*Result, error) {
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		return nil, err
	}
	vals := make([]value.Value, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	tx := txn.Begin(h.store)
	ex := &Executor{Tx: tx, Store: h.store, Args: vals}
	res, err := ex.Exec(stmt)
	if err != nil {
		tx.Abort()
		return nil, err
	}
	if _, err := tx.Commit(); err != nil {
		return nil, err
	}
	return res, nil
}

// rows renders a result compactly for assertions.
func rows(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.Display()
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func seedUsers(h *harness) {
	h.ddl(`CREATE TABLE users (id INTEGER PRIMARY KEY, name TEXT, city TEXT, age INTEGER)`)
	h.exec(`INSERT INTO users (id, name, city, age) VALUES
		(1, 'alice', 'sf', 30), (2, 'bob', 'nyc', 25),
		(3, 'carol', 'sf', 35), (4, 'dave', 'nyc', 40), (5, 'erin', 'la', NULL)`)
}

func seedOrders(h *harness) {
	h.ddl(`CREATE TABLE orders (oid INTEGER PRIMARY KEY, uid INTEGER, amount FLOAT)`)
	h.exec(`INSERT INTO orders (oid, uid, amount) VALUES
		(100, 1, 10.5), (101, 1, 20.0), (102, 2, 5.0), (103, 3, 7.5), (104, 9, 1.0)`)
}

func TestInsertAndSelectStar(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT * FROM users ORDER BY id`)
	if len(res.Rows) != 5 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%v", len(res.Rows), res.Columns)
	}
	if rows(res)[0] != "1|alice|sf|30" {
		t.Errorf("first row = %s", rows(res)[0])
	}
}

func TestInsertColumnSubsetAndDefaults(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id INTEGER PRIMARY KEY, a TEXT, b INTEGER)`)
	h.exec(`INSERT INTO t (id) VALUES (1)`)
	res := h.exec(`SELECT a, b FROM t WHERE id = 1`)
	if rows(res)[0] != "null|null" {
		t.Errorf("defaults = %s", rows(res)[0])
	}
	if _, err := h.tryExec(`INSERT INTO t (id, nope) VALUES (1, 2)`); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := h.tryExec(`INSERT INTO t (id, id) VALUES (1, 2)`); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := h.tryExec(`INSERT INTO t (id) VALUES (1, 2)`); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := h.tryExec(`INSERT INTO nope (id) VALUES (1)`); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestWhereComparisons(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	cases := []struct {
		where string
		want  int
	}{
		{"age > 30", 2},
		{"age >= 30", 3},
		{"age < 30", 1},
		{"age <= 25", 1},
		{"age = 30", 1},
		{"age != 30", 3}, // NULL row excluded
		{"age IS NULL", 1},
		{"age IS NOT NULL", 4},
		{"city = 'sf' AND age > 30", 1},
		{"city = 'sf' OR city = 'la'", 3},
		{"NOT (city = 'sf')", 3}, // bob, dave, erin (city is non-null for all)
		{"age BETWEEN 25 AND 35", 3},
		{"age NOT BETWEEN 25 AND 35", 1},
		{"city IN ('sf', 'la')", 3},
		{"city NOT IN ('sf', 'la')", 2},
		{"name LIKE 'a%'", 1},
		{"name LIKE '%o%'", 2},
		{"name LIKE '_ob'", 1},
		{"name NOT LIKE 'a%'", 4},
	}
	for _, c := range cases {
		res := h.exec("SELECT id FROM users WHERE " + c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s matched %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestPlaceholderBinding(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT name FROM users WHERE city = ? AND age > ?`, "sf", 31)
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "carol" {
		t.Errorf("placeholder query = %v", rows(res))
	}
	if _, err := h.tryExec(`SELECT * FROM users WHERE id = ?`); err == nil {
		t.Error("missing argument should fail")
	}
}

func TestProjectionExpressionsAndAliases(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT name AS n, age * 2 AS dbl, UPPER(city) FROM users WHERE id = 1`)
	if res.Columns[0] != "n" || res.Columns[1] != "dbl" {
		t.Errorf("columns = %v", res.Columns)
	}
	if rows(res)[0] != "alice|60|SF" {
		t.Errorf("row = %s", rows(res)[0])
	}
}

func TestScalarFunctions(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE x (id INTEGER PRIMARY KEY)`)
	h.exec(`INSERT INTO x VALUES (1)`)
	res := h.exec(`SELECT LOWER('AbC'), LENGTH('hello'), ABS(-4), ABS(-1.5), COALESCE(NULL, NULL, 7), SUBSTR('abcdef', 2, 3), 'a' || 'b' FROM x`)
	if rows(res)[0] != "abc|5|4|1.5|7|bcd|ab" {
		t.Errorf("scalar funcs = %s", rows(res)[0])
	}
	if _, err := h.tryExec(`SELECT NOSUCHFN(1) FROM x`); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := h.tryExec(`SELECT ABS('x') FROM x`); err == nil {
		t.Error("ABS of text should fail")
	}
	if _, err := h.tryExec(`SELECT LENGTH() FROM x`); err == nil {
		t.Error("arity error should fail")
	}
}

func TestOrderByVariants(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT name FROM users WHERE age IS NOT NULL ORDER BY age DESC`)
	if got := fmt.Sprint(rows(res)); got != "[dave carol alice bob]" {
		t.Errorf("order desc = %v", got)
	}
	// Multi-key: city asc, age desc.
	res = h.exec(`SELECT name FROM users WHERE age IS NOT NULL ORDER BY city, age DESC`)
	if got := fmt.Sprint(rows(res)); got != "[dave bob carol alice]" {
		t.Errorf("multi-key order = %v", got)
	}
	// Order by alias and by position.
	res = h.exec(`SELECT name, age AS a FROM users WHERE age IS NOT NULL ORDER BY a`)
	if res.Rows[0][0].AsText() != "bob" {
		t.Errorf("order by alias = %v", rows(res))
	}
	res = h.exec(`SELECT name, age FROM users WHERE age IS NOT NULL ORDER BY 2 DESC`)
	if res.Rows[0][0].AsText() != "dave" {
		t.Errorf("order by position = %v", rows(res))
	}
	// Order by non-projected expression.
	res = h.exec(`SELECT name FROM users WHERE age IS NOT NULL ORDER BY age % 7`)
	if res.Rows[0][0].AsText() != "carol" { // 35%7=0
		t.Errorf("order by expr = %v", rows(res))
	}
	// NULLs sort first.
	res = h.exec(`SELECT name FROM users ORDER BY age`)
	if res.Rows[0][0].AsText() != "erin" {
		t.Errorf("null ordering = %v", rows(res))
	}
}

func TestLimitOffset(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT id FROM users ORDER BY id LIMIT 2`)
	if fmt.Sprint(rows(res)) != "[1 2]" {
		t.Errorf("limit = %v", rows(res))
	}
	res = h.exec(`SELECT id FROM users ORDER BY id LIMIT 2 OFFSET 3`)
	if fmt.Sprint(rows(res)) != "[4 5]" {
		t.Errorf("limit+offset = %v", rows(res))
	}
	res = h.exec(`SELECT id FROM users ORDER BY id LIMIT ? OFFSET ?`, 1, 99)
	if len(res.Rows) != 0 {
		t.Errorf("offset past end = %v", rows(res))
	}
}

func TestDistinct(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT DISTINCT city FROM users ORDER BY city`)
	if fmt.Sprint(rows(res)) != "[la nyc sf]" {
		t.Errorf("distinct = %v", rows(res))
	}
}

func TestAggregates(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT COUNT(*), COUNT(age), SUM(age), AVG(age), MIN(age), MAX(age) FROM users`)
	if rows(res)[0] != "5|4|130|32.5|25|40" {
		t.Errorf("aggregates = %s", rows(res)[0])
	}
	// Aggregates over empty set.
	res = h.exec(`SELECT COUNT(*), SUM(age), MIN(age) FROM users WHERE id > 100`)
	if rows(res)[0] != "0|null|null" {
		t.Errorf("empty aggregates = %s", rows(res)[0])
	}
	// DISTINCT aggregation.
	res = h.exec(`SELECT COUNT(DISTINCT city) FROM users`)
	if rows(res)[0] != "3" {
		t.Errorf("count distinct = %s", rows(res)[0])
	}
	// Float SUM promotion.
	h.ddl(`CREATE TABLE f (id INTEGER PRIMARY KEY, v FLOAT)`)
	h.exec(`INSERT INTO f VALUES (1, 1.5), (2, 2.5)`)
	res = h.exec(`SELECT SUM(v) FROM f`)
	if rows(res)[0] != "4" {
		t.Errorf("float sum = %s", rows(res)[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`SELECT city, COUNT(*) AS c, MAX(age) FROM users GROUP BY city ORDER BY city`)
	if fmt.Sprint(rows(res)) != "[la|1|null nyc|2|40 sf|2|35]" {
		t.Errorf("group by = %v", rows(res))
	}
	res = h.exec(`SELECT city, COUNT(*) AS c FROM users GROUP BY city HAVING COUNT(*) > 1 ORDER BY city`)
	if fmt.Sprint(rows(res)) != "[nyc|2 sf|2]" {
		t.Errorf("having = %v", rows(res))
	}
	// Aggregate misuse.
	if _, err := h.tryExec(`SELECT * FROM users WHERE COUNT(*) > 1`); err == nil {
		t.Error("aggregate in WHERE should fail")
	}
}

func TestJoins(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	seedOrders(h)

	// Inner join (hash path).
	res := h.exec(`SELECT u.name, o.amount FROM users u JOIN orders o ON u.id = o.uid ORDER BY o.oid`)
	if fmt.Sprint(rows(res)) != "[alice|10.5 alice|20 bob|5 carol|7.5]" {
		t.Errorf("inner join = %v", rows(res))
	}

	// Paper-style comma join with ON.
	res = h.exec(`SELECT u.name FROM users AS u, orders AS o ON u.id = o.uid WHERE o.amount > 8 ORDER BY o.oid`)
	if fmt.Sprint(rows(res)) != "[alice alice]" {
		t.Errorf("comma join = %v", rows(res))
	}

	// Cross join row count.
	res = h.exec(`SELECT COUNT(*) FROM users, orders`)
	if rows(res)[0] != "25" {
		t.Errorf("cross join count = %s", rows(res)[0])
	}

	// Left join: users without orders keep a row with NULLs.
	res = h.exec(`SELECT u.name, o.oid FROM users u LEFT JOIN orders o ON u.id = o.uid ORDER BY u.id, o.oid`)
	got := fmt.Sprint(rows(res))
	if !strings.Contains(got, "dave|null") || !strings.Contains(got, "erin|null") {
		t.Errorf("left join = %v", got)
	}
	if len(res.Rows) != 6 {
		t.Errorf("left join rows = %d, want 6", len(res.Rows))
	}

	// Join with aggregation.
	res = h.exec(`SELECT u.name, SUM(o.amount) AS total FROM users u JOIN orders o ON u.id = o.uid GROUP BY u.name ORDER BY total DESC`)
	if rows(res)[0] != "alice|30.5" {
		t.Errorf("join+group = %v", rows(res))
	}

	// Non-equi join condition (nested loop path).
	res = h.exec(`SELECT COUNT(*) FROM users u JOIN orders o ON u.id < o.uid`)
	if rows(res)[0] != "22" {
		// uid values: 1,1,2,3,9 — for each order, count users with id < uid:
		// uid=1:0, uid=1:0, uid=2:1, uid=3:2, uid=9:5 → wait, recompute below.
		t.Logf("non-equi join = %s", rows(res)[0])
	}

	// Three-way join.
	h.ddl(`CREATE TABLE tags (tid INTEGER PRIMARY KEY, oid INTEGER, tag TEXT)`)
	h.exec(`INSERT INTO tags VALUES (1, 100, 'gift'), (2, 102, 'rush')`)
	res = h.exec(`SELECT u.name, t.tag FROM users u JOIN orders o ON u.id = o.uid JOIN tags t ON t.oid = o.oid ORDER BY t.tid`)
	if fmt.Sprint(rows(res)) != "[alice|gift bob|rush]" {
		t.Errorf("3-way join = %v", rows(res))
	}

	// Duplicate alias rejected.
	if _, err := h.tryExec(`SELECT * FROM users u, orders u`); err == nil {
		t.Error("duplicate alias should fail")
	}
	// Unknown alias in condition.
	if _, err := h.tryExec(`SELECT * FROM users u WHERE zz.id = 1`); err == nil {
		t.Error("unknown alias should fail")
	}
	// Ambiguous column.
	h.ddl(`CREATE TABLE users2 (id INTEGER PRIMARY KEY)`)
	h.exec(`INSERT INTO users2 VALUES (1)`)
	if _, err := h.tryExec(`SELECT id FROM users u, users2 v`); err == nil {
		t.Error("ambiguous column should fail")
	}
}

func TestNonEquiJoinCount(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	seedOrders(h)
	// users ids 1..5; orders uids 1,1,2,3,9.
	// pairs with u.id < o.uid: uid=2→id1 (1), uid=3→id1,2 (2), uid=9→all 5 (5) = 8.
	res := h.exec(`SELECT COUNT(*) FROM users u JOIN orders o ON u.id < o.uid`)
	if rows(res)[0] != "8" {
		t.Errorf("non-equi join count = %s, want 8", rows(res)[0])
	}
}

func TestUpdateStatement(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`UPDATE users SET age = age + 1 WHERE city = 'sf'`)
	if res.RowsAffected != 2 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	check := h.exec(`SELECT age FROM users WHERE id IN (1, 3) ORDER BY id`)
	if fmt.Sprint(rows(check)) != "[31 36]" {
		t.Errorf("after update = %v", rows(check))
	}
	// Update with placeholder.
	h.exec(`UPDATE users SET name = ? WHERE id = ?`, "ALICE", 1)
	check = h.exec(`SELECT name FROM users WHERE id = 1`)
	if rows(check)[0] != "ALICE" {
		t.Errorf("placeholder update = %v", rows(check))
	}
	// PK update is delete+insert.
	h.exec(`UPDATE users SET id = 100 WHERE id = 2`)
	if len(h.exec(`SELECT * FROM users WHERE id = 2`).Rows) != 0 {
		t.Error("old pk still present")
	}
	if len(h.exec(`SELECT * FROM users WHERE id = 100`).Rows) != 1 {
		t.Error("new pk missing")
	}
	// Unknown column.
	if _, err := h.tryExec(`UPDATE users SET nope = 1`); err == nil {
		t.Error("unknown SET column should fail")
	}
}

func TestDeleteStatement(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	res := h.exec(`DELETE FROM users WHERE city = 'nyc'`)
	if res.RowsAffected != 2 {
		t.Errorf("affected = %d", res.RowsAffected)
	}
	if left := h.exec(`SELECT COUNT(*) FROM users`); rows(left)[0] != "3" {
		t.Errorf("remaining = %v", rows(left))
	}
	// Unconditional delete.
	h.exec(`DELETE FROM users`)
	if left := h.exec(`SELECT COUNT(*) FROM users`); rows(left)[0] != "0" {
		t.Errorf("remaining after full delete = %v", rows(left))
	}
}

func TestPKPointLookupReadsOnlyOneRow(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	stmt, err := sqlparse.Parse(`SELECT name FROM users WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Begin(h.store)
	var readRows int
	ex := &Executor{Tx: tx, Store: h.store, OnRead: func(table string, row value.Row) { readRows++ }}
	res, err := ex.Select(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].AsText() != "carol" {
		t.Fatalf("point lookup = %v", rows(res))
	}
	if readRows != 1 {
		t.Errorf("point lookup read %d rows, want 1 (full scan leaked through)", readRows)
	}
	// The read set should contain exactly one key (no table-wide range).
	rs := tx.ReadSet()
	if len(rs.Ranges) != 0 {
		t.Errorf("point lookup recorded ranges: %+v", rs.Ranges)
	}
}

func TestPKPrefixRangeScan(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE sub (userId TEXT, forum TEXT, PRIMARY KEY (userId, forum))`)
	h.exec(`INSERT INTO sub VALUES ('u1','f1'),('u1','f2'),('u2','f1')`)
	stmt, _ := sqlparse.Parse(`SELECT forum FROM sub WHERE userId = 'u1' ORDER BY forum`)
	tx := txn.Begin(h.store)
	var reads int
	ex := &Executor{Tx: tx, Store: h.store, OnRead: func(string, value.Row) { reads++ }}
	res, err := ex.Select(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows(res)) != "[f1 f2]" {
		t.Errorf("prefix scan = %v", rows(res))
	}
	if reads != 2 {
		t.Errorf("prefix scan read %d rows, want 2", reads)
	}
}

func TestSecondaryIndexUsed(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	h.ddl(`CREATE INDEX by_city ON users (city)`)
	stmt, _ := sqlparse.Parse(`SELECT name FROM users WHERE city = 'sf' ORDER BY id`)
	tx := txn.Begin(h.store)
	var reads int
	ex := &Executor{Tx: tx, Store: h.store, OnRead: func(string, value.Row) { reads++ }}
	res, err := ex.Select(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows(res)) != "[alice carol]" {
		t.Errorf("index scan = %v", rows(res))
	}
	if reads != 2 {
		t.Errorf("index scan read %d rows, want 2", reads)
	}
	// With pending writes on the table the executor must fall back to a
	// full scan (overlay correctness) — results identical.
	tbl := h.store.Table("users")
	if err := tx.Insert(tbl, value.Row{value.Int(50), value.Text("zed"), value.Text("sf"), value.Int(20)}); err != nil {
		t.Fatal(err)
	}
	res, err = ex.Select(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rows(res)) != "[alice carol zed]" {
		t.Errorf("overlay-aware scan = %v", rows(res))
	}
}

func TestReadYourWritesThroughSQL(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)`)
	tx := txn.Begin(h.store)
	ex := &Executor{Tx: tx, Store: h.store}
	mustExec := func(src string) *Result {
		stmt, err := sqlparse.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ex.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mustExec(`INSERT INTO t VALUES (1, 10)`)
	mustExec(`UPDATE t SET v = 20 WHERE id = 1`)
	res := mustExec(`SELECT v FROM t WHERE id = 1`)
	if rows(res)[0] != "20" {
		t.Errorf("read-your-writes = %v", rows(res))
	}
	mustExec(`DELETE FROM t WHERE id = 1`)
	if len(mustExec(`SELECT * FROM t`).Rows) != 0 {
		t.Error("delete not visible in txn")
	}
	tx.Abort()
	// Nothing committed.
	if len(h.exec(`SELECT * FROM t`).Rows) != 0 {
		t.Error("aborted txn leaked writes")
	}
}

func TestFromlessSelect(t *testing.T) {
	h := newHarness(t)
	res := h.exec(`SELECT 1 + 2, 'x' || 'y'`)
	if rows(res)[0] != "3|xy" {
		t.Errorf("fromless = %v", rows(res))
	}
}

func TestNullSemanticsInWhere(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	// NULL = NULL is Unknown → excluded.
	res := h.exec(`SELECT id FROM users WHERE age = NULL`)
	if len(res.Rows) != 0 {
		t.Error("= NULL should match nothing")
	}
	// erin (NULL age) must be excluded from both a predicate and its negation.
	a := len(h.exec(`SELECT id FROM users WHERE age > 26`).Rows)
	b := len(h.exec(`SELECT id FROM users WHERE NOT (age > 26)`).Rows)
	if a+b != 4 {
		t.Errorf("three-valued logic violated: %d + %d != 4", a, b)
	}
}

func TestJoinOnNullNeverMatches(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER); CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER)`)
	h.exec(`INSERT INTO l VALUES (1, NULL), (2, 5)`)
	h.exec(`INSERT INTO r VALUES (1, NULL), (2, 5)`)
	res := h.exec(`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k`)
	if len(res.Rows) != 1 || rows(res)[0] != "2|2" {
		t.Errorf("null join = %v", rows(res))
	}
}

func TestSelectUnknownColumnAndTable(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	if _, err := h.tryExec(`SELECT nope FROM users`); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := h.tryExec(`SELECT * FROM nope`); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestTableDotStar(t *testing.T) {
	h := newHarness(t)
	seedUsers(h)
	seedOrders(h)
	res := h.exec(`SELECT o.*, u.name FROM users u JOIN orders o ON u.id = o.uid WHERE o.oid = 100`)
	if len(res.Columns) != 4 || res.Columns[0] != "oid" || res.Columns[3] != "name" {
		t.Errorf("o.* columns = %v", res.Columns)
	}
}

func TestTypeCoercionOnInsert(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE c (id INTEGER PRIMARY KEY, f FLOAT, b BOOL)`)
	h.exec(`INSERT INTO c VALUES (1, 2, 1)`) // int→float, int→bool
	res := h.exec(`SELECT f, b FROM c WHERE id = 1`)
	if res.Rows[0][0].Kind() != value.KindFloat || res.Rows[0][1].Kind() != value.KindBool {
		t.Errorf("coercion kinds = %v %v", res.Rows[0][0].Kind(), res.Rows[0][1].Kind())
	}
	if _, err := h.tryExec(`INSERT INTO c VALUES (2, 'x', 0)`); err == nil {
		t.Error("text into float should fail")
	}
	if _, err := h.tryExec(`INSERT INTO c VALUES (NULL, 0.0, 0)`); err == nil {
		t.Error("NULL pk should fail")
	}
}
