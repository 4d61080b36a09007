package sqlexec

// Targeted tests for the physical-plan layer: range predicates pushed into
// PK/index scan key bounds, streaming LIMIT/OFFSET, and concurrent reuse of
// one compiled plan. The differential property tests cover the general
// WHERE pipeline; these pin the access-path decisions.

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/txn"
	"repro/internal/value"
)

func seedRange(h *harness) {
	h.ddl(`CREATE TABLE seq (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`)
	var sb []string
	for i := 0; i < 50; i++ {
		sb = append(sb, fmt.Sprintf("(%d, %d, 'v%d')", i, i%7, i))
	}
	stmt := "INSERT INTO seq (id, k, v) VALUES " + sb[0]
	for _, s := range sb[1:] {
		stmt += ", " + s
	}
	h.exec(stmt)
}

func TestPKRangePushdown(t *testing.T) {
	h := newHarness(t)
	seedRange(h)
	cases := []struct {
		q    string
		want []string
	}{
		{`SELECT id FROM seq WHERE id > 46 ORDER BY id`, []string{"47", "48", "49"}},
		{`SELECT id FROM seq WHERE id >= 47 ORDER BY id`, []string{"47", "48", "49"}},
		{`SELECT id FROM seq WHERE id < 3 ORDER BY id`, []string{"0", "1", "2"}},
		{`SELECT id FROM seq WHERE id <= 2 ORDER BY id`, []string{"0", "1", "2"}},
		{`SELECT id FROM seq WHERE id > 44 AND id < 48 ORDER BY id`, []string{"45", "46", "47"}},
		// Reversed operand order must flip the comparison.
		{`SELECT id FROM seq WHERE 46 < id ORDER BY id`, []string{"47", "48", "49"}},
		// Contradictory interval: empty, not an error.
		{`SELECT id FROM seq WHERE id > 10 AND id < 5`, nil},
		// Placeholder bounds are evaluated per execution.
		{`SELECT id FROM seq WHERE id >= ? AND id < ?`, []string{"48", "49"}},
	}
	for _, c := range cases {
		var res *Result
		if c.q == `SELECT id FROM seq WHERE id >= ? AND id < ?` {
			res = h.exec(c.q, 48, 50)
		} else {
			res = h.exec(c.q)
		}
		got := rows(res)
		if len(got) == 0 {
			got = nil
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: got %v, want %v", c.q, got, c.want)
		}
	}
}

func TestPKRangeTypeMismatchFallsBackToFilter(t *testing.T) {
	h := newHarness(t)
	seedRange(h)
	// 3.5 does not coerce to INTEGER, so no key bound may be used — but the
	// residual filter must still deliver the right rows.
	res := h.exec(`SELECT id FROM seq WHERE id > 3.5 AND id < 6`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"4", "5"}) {
		t.Fatalf("float bound over integer PK: got %v", got)
	}
}

func TestCompositePKPrefixPlusRange(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE m (a INTEGER, b INTEGER, v TEXT, PRIMARY KEY (a, b))`)
	h.exec(`INSERT INTO m (a, b, v) VALUES
		(1, 1, 'x'), (1, 2, 'y'), (1, 3, 'z'), (2, 1, 'p'), (2, 9, 'q')`)
	res := h.exec(`SELECT v FROM m WHERE a = 1 AND b >= 2 ORDER BY b`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"y", "z"}) {
		t.Fatalf("eq-prefix + range: got %v", got)
	}
	res = h.exec(`SELECT v FROM m WHERE a = 2 AND b < 5`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"p"}) {
		t.Fatalf("eq-prefix + upper range: got %v", got)
	}
}

func TestIndexRangePushdownMatchesFullScan(t *testing.T) {
	h := newHarness(t)
	seedRange(h)
	plain := rows(h.exec(`SELECT id FROM seq WHERE k >= 2 AND k <= 3 ORDER BY id`))
	h.ddl(`CREATE INDEX seq_k ON seq (k)`)
	indexed := rows(h.exec(`SELECT id FROM seq WHERE k >= 2 AND k <= 3 ORDER BY id`))
	if !reflect.DeepEqual(plain, indexed) {
		t.Fatalf("index range scan diverges from full scan:\nfull:    %v\nindexed: %v", plain, indexed)
	}
	if len(indexed) == 0 {
		t.Fatal("expected matches")
	}
}

// TestIndexEqBeatsPKRange pins the access-path priority for mixed
// predicates: an index equality lookup must be chosen (and stay correct)
// when a PK range bound is also present — the cursor-pagination shape
// "id > last AND k = ?".
func TestIndexEqBeatsPKRange(t *testing.T) {
	h := newHarness(t)
	seedRange(h)
	h.ddl(`CREATE INDEX seq_k ON seq (k)`)
	res := h.exec(`SELECT id FROM seq WHERE id > 10 AND k = 2 ORDER BY id`)
	// k = 2 at ids 2,9,16,23,30,37,44 (i%7==2); id > 10 keeps 16..44.
	want := []string{"16", "23", "30", "37", "44"}
	if got := rows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("mixed PK-range + index-eq predicate: got %v, want %v", got, want)
	}
	// And with the index as the only option (no PK range).
	res = h.exec(`SELECT id FROM seq WHERE k = 2 ORDER BY id`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"2", "9", "16", "23", "30", "37", "44"}) {
		t.Fatalf("index-eq only: got %v", got)
	}
}

func TestStreamingLimitOffset(t *testing.T) {
	h := newHarness(t)
	seedRange(h)
	// No ORDER BY: the single-source streaming path with LIMIT stopping the
	// scan. PK scans yield id order, so the result is deterministic.
	res := h.exec(`SELECT id FROM seq LIMIT 3`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"0", "1", "2"}) {
		t.Fatalf("LIMIT: got %v", got)
	}
	res = h.exec(`SELECT id FROM seq LIMIT 2 OFFSET 4`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"4", "5"}) {
		t.Fatalf("LIMIT OFFSET: got %v", got)
	}
	res = h.exec(`SELECT id FROM seq LIMIT 0`)
	if len(res.Rows) != 0 {
		t.Fatalf("LIMIT 0: got %d rows", len(res.Rows))
	}
	res = h.exec(`SELECT id FROM seq WHERE id >= 48 LIMIT 10`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"48", "49"}) {
		t.Fatalf("LIMIT beyond result: got %v", got)
	}
}

// TestLeftJoinResidualOnCondition pins the slot layout of non-equi LEFT
// JOIN ON conjuncts: they evaluate against the joined tuple, so their column
// references must resolve in the joined layout, not the right source's local
// layout (regression: o.qty read the wrong slot and matched spuriously).
func TestLeftJoinResidualOnCondition(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE lu (id INTEGER PRIMARY KEY, name TEXT)`)
	h.ddl(`CREATE TABLE lo (oid INTEGER PRIMARY KEY, uid INTEGER, qty INTEGER)`)
	h.exec(`INSERT INTO lu (id, name) VALUES (1, 'alice'), (2, 'bob')`)
	h.exec(`INSERT INTO lo (oid, uid, qty) VALUES (10, 1, 5), (11, 2, 0)`)
	res := h.exec(`SELECT u.name, o.oid FROM lu AS u LEFT JOIN lo AS o
		ON u.id = o.uid AND o.qty > 1 ORDER BY u.id`)
	want := []string{"alice|10", "bob|null"}
	if got := rows(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("LEFT JOIN with residual ON condition: got %v, want %v", got, want)
	}
}

// TestLookupJoinDuplicatePKConjuncts pins that two equi-join conjuncts
// targeting the same PK column disqualify the PK-lookup strategy (which can
// only encode one value per key column); the hash join evaluates both.
func TestLookupJoinDuplicatePKConjuncts(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE da (id INTEGER PRIMARY KEY, x INTEGER, y INTEGER)`)
	h.ddl(`CREATE TABLE dt (id INTEGER PRIMARY KEY, v TEXT)`)
	h.exec(`INSERT INTO da (id, x, y) VALUES (1, 1, 2), (2, 3, 3)`)
	h.exec(`INSERT INTO dt (id, v) VALUES (1,'a'),(2,'b'),(3,'c'),(4,'d'),(5,'e'),
		(6,'f'),(7,'g'),(8,'h'),(9,'i'),(10,'j')`)
	// Row (1, x=1, y=2): x != y, so no dt.id can satisfy both conjuncts.
	// Row (2, x=3, y=3): both conjuncts hold for dt.id = 3.
	res := h.exec(`SELECT da.id, dt.v FROM da JOIN dt ON da.x = dt.id AND da.y = dt.id`)
	if got := rows(res); !reflect.DeepEqual(got, []string{"2|c"}) {
		t.Fatalf("duplicate-PK-column join conjuncts: got %v, want [2|c]", got)
	}
}

// TestPlanConcurrentReuse executes one compiled plan from many goroutines;
// run under -race this pins that plans are read-only at execution time.
func TestPlanConcurrentReuse(t *testing.T) {
	h := newHarness(t)
	seedRange(h)
	stmt, err := sqlparse.Parse(`SELECT v FROM seq WHERE id = ? AND k >= 0`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := Compile(stmt, h.store)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := (g*200 + i) % 50
				ex := &Executor{Tx: txn.Begin(h.store), Store: h.store, Args: []value.Value{value.Int(int64(id))}}
				res, err := ex.Run(plan)
				if err != nil {
					errs <- err
					return
				}
				if len(res.Rows) != 1 || res.Rows[0][0].AsText() != fmt.Sprintf("v%d", id) {
					errs <- fmt.Errorf("goroutine %d: wrong row for id=%d: %v", g, id, res.Rows)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShapeShowsWhoOrders: the slow-query shape marks a scan that yields
// the ORDER BY with its direction, and shows "→ order" only when a sort
// runs.
func TestShapeShowsWhoOrders(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE posts (postId INTEGER PRIMARY KEY, userId INTEGER, body TEXT);
	       CREATE INDEX posts_by_user ON posts (userId);
	       CREATE TABLE users (userId INTEGER PRIMARY KEY, name TEXT)`)
	cases := []struct{ q, want string }{
		{`SELECT postId FROM posts WHERE userId = ? ORDER BY postId DESC LIMIT 5`, "scan(posts eq[userId] ix desc) → limit"},
		{`SELECT postId FROM posts WHERE userId = ? ORDER BY postId`, "scan(posts eq[userId] ix asc)"},
		{`SELECT * FROM posts ORDER BY postId DESC`, "scan(posts desc)"},
		{`SELECT body FROM posts WHERE postId = ? ORDER BY body DESC`, "scan(posts eq[postId] desc)"},
		// A sort runs: not a key column, ties a reverse walk would flip, mixed
		// directions, an expression, and an aggregate.
		{`SELECT postId FROM posts WHERE userId = ? ORDER BY body LIMIT 5`, "scan(posts eq[userId] ix) → order → limit"},
		{`SELECT userId FROM posts WHERE userId > ? ORDER BY userId DESC`, "scan(posts range[userId] ix) → order"},
		{`SELECT postId FROM posts ORDER BY postId, body DESC`, "scan(posts) → order"},
		{`SELECT postId FROM posts ORDER BY -postId`, "scan(posts) → order"},
		{`SELECT userId, COUNT(*) FROM posts GROUP BY userId ORDER BY userId`, "scan(posts) → group → order"},
		{`SELECT p.postId FROM posts p JOIN users u ON p.userId = u.userId ORDER BY p.postId`, "scan(posts) join-pk(users) → order"},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse(c.q)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Compile(stmt, h.store)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Shape(); got != c.want {
			t.Errorf("%s\n shape %q, want %q", c.q, got, c.want)
		}
	}
}
