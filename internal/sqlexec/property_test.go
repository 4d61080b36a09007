package sqlexec

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/sqlparse"
	"repro/internal/txn"
	"repro/internal/value"
)

// This file cross-checks the SQL executor against a straightforward Go
// reference implementation on randomly generated data and predicates — a
// differential property test for the WHERE/ORDER BY/aggregate pipeline.

// refRow is the reference's view of the test table.
type refRow struct {
	id  int64
	cat string // 'a'..'e' or "" (NULL)
	num int64  // may be NULL (use hasNum)
	has bool
}

func seedPropertyTable(t *testing.T, rng *rand.Rand, n int) (*harness, []refRow) {
	t.Helper()
	h := newHarness(t)
	h.ddl(`CREATE TABLE p (id INTEGER PRIMARY KEY, cat TEXT, num INTEGER)`)
	rows := make([]refRow, 0, n)
	for i := 0; i < n; i++ {
		r := refRow{id: int64(i)}
		if rng.Intn(10) == 0 {
			h.exec(`INSERT INTO p VALUES (?, NULL, NULL)`, i)
			rows = append(rows, r)
			continue
		}
		r.cat = string(rune('a' + rng.Intn(5)))
		r.num = rng.Int63n(100)
		r.has = true
		h.exec(`INSERT INTO p VALUES (?, ?, ?)`, i, r.cat, r.num)
		rows = append(rows, r)
	}
	return h, rows
}

// predicate pairs a SQL condition with its Go evaluation (SQL three-valued
// logic reduced to "row matches").
type predicate struct {
	sql string
	ref func(refRow) bool
}

func randomPredicate(rng *rand.Rand) predicate {
	switch rng.Intn(8) {
	case 0:
		k := rng.Int63n(100)
		return predicate{fmt.Sprintf("num > %d", k), func(r refRow) bool { return r.has && r.num > k }}
	case 1:
		k := rng.Int63n(100)
		return predicate{fmt.Sprintf("num <= %d", k), func(r refRow) bool { return r.has && r.num <= k }}
	case 2:
		c := string(rune('a' + rng.Intn(5)))
		return predicate{fmt.Sprintf("cat = '%s'", c), func(r refRow) bool { return r.has && r.cat == c }}
	case 3:
		c := string(rune('a' + rng.Intn(5)))
		return predicate{fmt.Sprintf("cat != '%s'", c), func(r refRow) bool { return r.has && r.cat != c }}
	case 4:
		return predicate{"num IS NULL", func(r refRow) bool { return !r.has }}
	case 5:
		lo := rng.Int63n(50)
		hi := lo + rng.Int63n(50)
		return predicate{fmt.Sprintf("num BETWEEN %d AND %d", lo, hi),
			func(r refRow) bool { return r.has && r.num >= lo && r.num <= hi }}
	case 6:
		a := string(rune('a' + rng.Intn(5)))
		b := string(rune('a' + rng.Intn(5)))
		return predicate{fmt.Sprintf("cat IN ('%s', '%s')", a, b),
			func(r refRow) bool { return r.has && (r.cat == a || r.cat == b) }}
	default:
		k := rng.Int63n(10)
		return predicate{fmt.Sprintf("num %% 10 = %d", k), func(r refRow) bool { return r.has && r.num%10 == k }}
	}
}

// combine builds AND/OR/NOT combinations.
func combinePredicates(rng *rand.Rand, depth int) predicate {
	if depth == 0 || rng.Intn(3) == 0 {
		return randomPredicate(rng)
	}
	a := combinePredicates(rng, depth-1)
	b := combinePredicates(rng, depth-1)
	switch rng.Intn(3) {
	case 0:
		return predicate{fmt.Sprintf("(%s) AND (%s)", a.sql, b.sql),
			func(r refRow) bool { return a.ref(r) && b.ref(r) }}
	case 1:
		return predicate{fmt.Sprintf("(%s) OR (%s)", a.sql, b.sql),
			func(r refRow) bool { return a.ref(r) || b.ref(r) }}
	default:
		// NOT over three-valued logic: NULL-involving predicates stay
		// filtered out. Our ref funcs already return false for Unknown, and
		// NOT(Unknown) is also Unknown -> false, so negate only rows where
		// the inner predicate is definitely false. That requires knowing
		// definedness; approximate by restricting NOT to non-NULL rows.
		return predicate{fmt.Sprintf("num IS NOT NULL AND NOT (%s)", a.sql),
			func(r refRow) bool { return r.has && !refDefinedAndFalse(a, r) }}
	}
}

// refDefinedAndFalse evaluates whether a matches r — since every leaf
// predicate treats NULL as no-match and r.has is checked by the caller,
// plain negation is sound for non-NULL rows EXCEPT for "num IS NULL" leaves;
// those are defined on all rows. We therefore evaluate a.ref directly.
func refDefinedAndFalse(a predicate, r refRow) bool { return a.ref(r) }

func TestWherePredicateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h, rows := seedPropertyTable(t, rng, 300)
	for trial := 0; trial < 200; trial++ {
		p := combinePredicates(rng, 2)
		res, err := h.tryExec("SELECT id FROM p WHERE " + p.sql + " ORDER BY id")
		if err != nil {
			t.Fatalf("trial %d: %q: %v", trial, p.sql, err)
		}
		var want []int64
		for _, r := range rows {
			if p.ref(r) {
				want = append(want, r.id)
			}
		}
		if len(res.Rows) != len(want) {
			t.Fatalf("trial %d: %q matched %d rows, reference %d", trial, p.sql, len(res.Rows), len(want))
		}
		for i, r := range res.Rows {
			if r[0].AsInt() != want[i] {
				t.Fatalf("trial %d: %q row %d = %d, want %d", trial, p.sql, i, r[0].AsInt(), want[i])
			}
		}
	}
}

func TestAggregateDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	h, rows := seedPropertyTable(t, rng, 250)
	for trial := 0; trial < 50; trial++ {
		p := randomPredicate(rng)
		res, err := h.tryExec("SELECT COUNT(*), COUNT(num), SUM(num), MIN(num), MAX(num) FROM p WHERE " + p.sql)
		if err != nil {
			t.Fatalf("%q: %v", p.sql, err)
		}
		var count, countNum, sum int64
		var minV, maxV int64
		started := false
		for _, r := range rows {
			if !p.ref(r) {
				continue
			}
			count++
			if r.has {
				countNum++
				sum += r.num
				if !started || r.num < minV {
					minV = r.num
				}
				if !started || r.num > maxV {
					maxV = r.num
				}
				started = true
			}
		}
		got := res.Rows[0]
		if got[0].AsInt() != count || got[1].AsInt() != countNum {
			t.Fatalf("%q: counts = %v/%v, want %d/%d", p.sql, got[0], got[1], count, countNum)
		}
		if countNum == 0 {
			if !got[2].IsNull() || !got[3].IsNull() || !got[4].IsNull() {
				t.Fatalf("%q: empty aggregates should be NULL: %v", p.sql, got)
			}
			continue
		}
		if got[2].AsInt() != sum || got[3].AsInt() != minV || got[4].AsInt() != maxV {
			t.Fatalf("%q: sum/min/max = %v/%v/%v, want %d/%d/%d", p.sql, got[2], got[3], got[4], sum, minV, maxV)
		}
	}
}

func TestGroupByDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h, rows := seedPropertyTable(t, rng, 300)
	res, err := h.tryExec(`SELECT cat, COUNT(*), SUM(num) FROM p WHERE cat IS NOT NULL GROUP BY cat ORDER BY cat`)
	if err != nil {
		t.Fatal(err)
	}
	type agg struct {
		n, sum int64
	}
	ref := map[string]*agg{}
	for _, r := range rows {
		if !r.has {
			continue
		}
		a := ref[r.cat]
		if a == nil {
			a = &agg{}
			ref[r.cat] = a
		}
		a.n++
		a.sum += r.num
	}
	var cats []string
	for c := range ref {
		cats = append(cats, c)
	}
	sort.Strings(cats)
	if len(res.Rows) != len(cats) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(cats))
	}
	for i, c := range cats {
		r := res.Rows[i]
		if r[0].AsText() != c || r[1].AsInt() != ref[c].n || r[2].AsInt() != ref[c].sum {
			t.Errorf("group %s = %v, want (%d, %d)", c, r, ref[c].n, ref[c].sum)
		}
	}
}

func TestJoinDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	h := newHarness(t)
	h.ddl(`CREATE TABLE l (id INTEGER PRIMARY KEY, k INTEGER); CREATE TABLE r (id INTEGER PRIMARY KEY, k INTEGER, v TEXT)`)
	type lr struct{ id, k int64 }
	type rr struct {
		id, k int64
		v     string
	}
	var ls []lr
	var rs []rr
	for i := 0; i < 80; i++ {
		k := rng.Int63n(20)
		ls = append(ls, lr{int64(i), k})
		h.exec(`INSERT INTO l VALUES (?, ?)`, i, k)
	}
	for i := 0; i < 60; i++ {
		k := rng.Int63n(20)
		v := fmt.Sprintf("v%d", i)
		rs = append(rs, rr{int64(i), k, v})
		h.exec(`INSERT INTO r VALUES (?, ?, ?)`, i, k, v)
	}
	// Inner equi-join row count and membership.
	res := h.exec(`SELECT l.id, r.id FROM l JOIN r ON l.k = r.k ORDER BY l.id, r.id`)
	var want [][2]int64
	for _, a := range ls {
		for _, b := range rs {
			if a.k == b.k {
				want = append(want, [2]int64{a.id, b.id})
			}
		}
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i][0] != want[j][0] {
			return want[i][0] < want[j][0]
		}
		return want[i][1] < want[j][1]
	})
	if len(res.Rows) != len(want) {
		t.Fatalf("join rows = %d, want %d", len(res.Rows), len(want))
	}
	for i, r := range res.Rows {
		if r[0].AsInt() != want[i][0] || r[1].AsInt() != want[i][1] {
			t.Fatalf("join row %d = %v, want %v", i, r, want[i])
		}
	}
	// LEFT JOIN preserves unmatched left rows exactly once.
	res = h.exec(`SELECT l.id, r.id FROM l LEFT JOIN r ON l.k = r.k`)
	matched := map[int64]int{}
	for _, r := range res.Rows {
		matched[r[0].AsInt()]++
	}
	for _, a := range ls {
		n := 0
		for _, b := range rs {
			if a.k == b.k {
				n++
			}
		}
		wantN := n
		if n == 0 {
			wantN = 1 // null-extended
		}
		if matched[a.id] != wantN {
			t.Fatalf("left join: l.id=%d appears %d times, want %d", a.id, matched[a.id], wantN)
		}
	}
}

// TestLookupJoinMatchesHashJoin pins the index-nested-loop join against the
// generic path on the provenance-style query shape.
func TestLookupJoinMatchesHashJoin(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE big (TxnId INTEGER PRIMARY KEY, payload TEXT);
	       CREATE TABLE small (EvId INTEGER PRIMARY KEY, TxnId INTEGER, tag TEXT)`)
	for i := 0; i < 500; i++ {
		h.exec(`INSERT INTO big VALUES (?, ?)`, i, fmt.Sprintf("p%d", i))
	}
	// A handful of small rows referencing scattered txns (and one dangling).
	for i, ref := range []int64{3, 99, 250, 499, 9999} {
		h.exec(`INSERT INTO small VALUES (?, ?, 'x')`, i, ref)
	}
	// small drives (filtered), big is joined by its full PK -> lookup join.
	res := h.exec(`SELECT b.payload FROM small s, big b ON s.TxnId = b.TxnId
		WHERE s.tag = 'x' ORDER BY b.TxnId`)
	if len(res.Rows) != 4 {
		t.Fatalf("lookup join rows = %d, want 4 (dangling ref excluded)", len(res.Rows))
	}
	if res.Rows[0][0].AsText() != "p3" || res.Rows[3][0].AsText() != "p499" {
		t.Errorf("lookup join payloads = %v", rows(res))
	}

	// Read provenance must reflect only the looked-up rows, not a scan.
	stmt, _ := sqlparse.Parse(`SELECT b.payload FROM small s, big b ON s.TxnId = b.TxnId WHERE s.tag = 'x'`)
	tx := txn.Begin(h.store)
	defer tx.Abort()
	bigReads := 0
	ex := &Executor{Tx: tx, Store: h.store, OnRead: func(table string, _ value.Row) {
		if strings.EqualFold(table, "big") {
			bigReads++
		}
	}}
	if _, err := ex.Select(stmt.(*sqlparse.Select)); err != nil {
		t.Fatal(err)
	}
	if bigReads != 4 {
		t.Errorf("lookup join read %d big rows, want 4", bigReads)
	}
}

func TestReorderDoesNotChangeSemantics(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE a (id INTEGER PRIMARY KEY, x INTEGER); CREATE TABLE b (id INTEGER PRIMARY KEY, aid INTEGER, y INTEGER)`)
	for i := 0; i < 30; i++ {
		h.exec(`INSERT INTO a VALUES (?, ?)`, i, i%5)
		h.exec(`INSERT INTO b VALUES (?, ?, ?)`, i, i%30, i%7)
	}
	// Filters on the SECOND source trigger reordering; results must match
	// the semantically identical query with sources swapped in the text.
	q1 := h.exec(`SELECT a.id, b.id FROM a JOIN b ON a.id = b.aid WHERE b.y = 3 ORDER BY a.id, b.id`)
	q2 := h.exec(`SELECT a.id, b.id FROM b JOIN a ON a.id = b.aid WHERE b.y = 3 ORDER BY a.id, b.id`)
	if fmt.Sprint(rows(q1)) != fmt.Sprint(rows(q2)) {
		t.Errorf("reorder changed results:\n%v\n%v", rows(q1), rows(q2))
	}
	// SELECT * must NOT be reordered (column order is user-visible).
	star := h.exec(`SELECT * FROM a JOIN b ON a.id = b.aid WHERE b.y = 3 ORDER BY a.id LIMIT 1`)
	if len(star.Columns) != 5 || star.Columns[0] != "id" || star.Columns[2] != "id" {
		t.Errorf("star columns = %v", star.Columns)
	}
	// First two columns belong to table a (x is small), last three to b.
	if star.Rows[0][1].AsInt() >= 5 {
		t.Errorf("star column order broken: %v", star.Rows[0])
	}
}

func TestLikeMatcherTable(t *testing.T) {
	cases := []struct {
		s, pat string
		want   bool
	}{
		{"", "", true},
		{"", "%", true},
		{"a", "", false},
		{"abc", "abc", true},
		{"abc", "a%", true},
		{"abc", "%c", true},
		{"abc", "%b%", true},
		{"abc", "a_c", true},
		{"abc", "a_b", false},
		{"abc", "____", false},
		{"abc", "___", true},
		{"abc", "%%", true},
		{"abc", "%a%b%c%", true},
		{"aXbXc", "a%b%c", true},
		{"mississippi", "%iss%ppi", true},
		{"mississippi", "%iss%ippi%", true},
		{"mississippi", "m%i%s%p%i", true},
		{"abcde", "abc%e%f", false},
		{"aaa", "a%a", true},
		{"ab", "ba", false},
	}
	for _, c := range cases {
		if got := likeMatch(c.s, c.pat); got != c.want {
			t.Errorf("likeMatch(%q, %q) = %v, want %v", c.s, c.pat, got, c.want)
		}
	}
}

// execIn runs one statement on an already-open transaction (the harness's
// exec helpers commit per statement, which defeats overlay tests).
func execIn(t *testing.T, h *harness, tx *txn.Txn, src string, args ...any) *Result {
	t.Helper()
	stmt, err := sqlparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	vals := make([]value.Value, len(args))
	for i, a := range args {
		v, err := value.FromGo(a)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	ex := &Executor{Tx: tx, Store: h.store, Args: vals}
	res, err := ex.Exec(stmt)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return res
}

// TestIndexScanUnderLocalWritesDifferential is the overlay property test:
// with buffered local inserts/updates/deletes pending, an index-equality
// query must (a) still use the secondary index (precise index ranges in the
// read set, no whole-table range) and (b) return exactly what a full-scan
// oracle and an independent Go reference return.
func TestIndexScanUnderLocalWritesDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := newHarness(t)
	h.ddl(`CREATE TABLE q (id INTEGER PRIMARY KEY, cat TEXT, num INTEGER);
	       CREATE INDEX q_cat ON q (cat)`)
	ref := map[int64]string{} // id -> cat ("" = NULL)
	for i := int64(0); i < 200; i++ {
		if rng.Intn(10) == 0 {
			h.exec(`INSERT INTO q VALUES (?, NULL, 0)`, i)
			ref[i] = ""
			continue
		}
		c := string(rune('a' + rng.Intn(5)))
		h.exec(`INSERT INTO q VALUES (?, ?, ?)`, i, c, i)
		ref[i] = c
	}

	tx := txn.Begin(h.store)
	defer tx.Abort()
	// Buffered mutations: fresh inserts, category moves, and deletes.
	for i := int64(1000); i < 1040; i++ {
		c := string(rune('a' + rng.Intn(5)))
		execIn(t, h, tx, `INSERT INTO q VALUES (?, ?, ?)`, i, c, i)
		ref[i] = c
	}
	for i := int64(0); i < 200; i += 3 {
		if _, ok := ref[i]; !ok {
			continue
		}
		c := string(rune('a' + rng.Intn(5)))
		execIn(t, h, tx, `UPDATE q SET cat = ? WHERE id = ?`, c, i)
		ref[i] = c
	}
	for i := int64(1); i < 200; i += 7 {
		execIn(t, h, tx, `DELETE FROM q WHERE id = ?`, i)
		delete(ref, i)
	}

	ids := func(res *Result) []int64 {
		out := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r[0].AsInt()
		}
		return out
	}
	// Indexed queries first, so the read set can be checked before the
	// full-scan oracle adds its whole-table range.
	indexed := map[string][]int64{}
	for c := 'a'; c <= 'e'; c++ {
		indexed[string(c)] = ids(execIn(t, h, tx, `SELECT id FROM q WHERE cat = ? ORDER BY id`, string(c)))
	}
	rs := tx.ReadSet()
	if len(rs.IndexRanges) == 0 {
		t.Fatal("index-equality queries under local writes must record index ranges (index path not taken?)")
	}
	for _, r := range rs.Ranges {
		if r.Table == "q" && r.Lo == "" && r.Hi == "" {
			t.Fatal("index-equality query fell back to a whole-table scan range")
		}
	}
	for c := 'a'; c <= 'e'; c++ {
		cat := string(c)
		// Full-scan oracle: cat || '' defeats the col-const bound extraction.
		oracle := ids(execIn(t, h, tx, `SELECT id FROM q WHERE cat || '' = ? ORDER BY id`, cat))
		var want []int64
		for i := int64(0); i < 2000; i++ {
			if ref[i] == cat {
				want = append(want, i)
			}
		}
		if fmt.Sprint(indexed[cat]) != fmt.Sprint(want) {
			t.Errorf("cat=%s: index scan %v, reference %v", cat, indexed[cat], want)
		}
		if fmt.Sprint(oracle) != fmt.Sprint(want) {
			t.Errorf("cat=%s: full-scan oracle %v, reference %v", cat, oracle, want)
		}
	}
}

// TestIndexScanStreamsThroughLimit: LIMIT must stop the merged index scan
// early — observed through read provenance, which fires once per row the
// statement actually consumed.
func TestIndexScanStreamsThroughLimit(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE ev (id INTEGER PRIMARY KEY, kind TEXT, payload TEXT);
	       CREATE INDEX ev_kind ON ev (kind)`)
	for i := 0; i < 100; i++ {
		h.exec(`INSERT INTO ev VALUES (?, 'click', ?)`, i, fmt.Sprintf("p%d", i))
	}
	tx := txn.Begin(h.store)
	defer tx.Abort()
	// A buffered write on the table must not force a full-scan fallback.
	execIn(t, h, tx, `INSERT INTO ev VALUES (1000, 'view', 'x')`)

	stmt, err := sqlparse.Parse(`SELECT payload FROM ev WHERE kind = 'click' LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	reads := 0
	ex := &Executor{Tx: tx, Store: h.store, OnRead: func(string, value.Row) { reads++ }}
	res, err := ex.Select(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("limit rows = %d", len(res.Rows))
	}
	if reads != 3 {
		t.Errorf("LIMIT 3 read %d rows — index scan is not streaming", reads)
	}
	if len(tx.ReadSet().IndexRanges) == 0 {
		t.Error("query did not take the index path despite buffered writes")
	}
}

func TestConcatAndLikeNullPropagation(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE t (id INTEGER PRIMARY KEY, s TEXT)`)
	h.exec(`INSERT INTO t VALUES (1, 'x'), (2, NULL)`)
	res := h.exec(`SELECT id FROM t WHERE s || 'suffix' = 'xsuffix'`)
	if len(res.Rows) != 1 {
		t.Errorf("concat filter = %v", rows(res))
	}
	res = h.exec(`SELECT id FROM t WHERE s LIKE 'x%'`)
	if len(res.Rows) != 1 {
		t.Errorf("like with null = %v", rows(res))
	}
}

// ordRow is the reference's view of one row of the ORDER BY tables: o's
// (id, g, r, s) or c's (a, b, v), every column a value so the reference
// orders with value.Compare, exactly as the executor's sort does.
type ordRow value.Row

// orderCase is one ORDER BY query shape. scanKey lists, in order, the
// columns of the access path the engine takes for it (index columns, then
// primary-key columns): the order rows reach the sort in, which decides how
// ties come out. order lists the ORDER BY columns and directions.
type orderCase struct {
	table   string
	sql     string // without LIMIT/OFFSET
	args    func(rng *rand.Rand) []any
	match   func(r ordRow, args []any) bool
	scanKey []int
	order   []orderTerm
}

type orderTerm struct {
	col  int
	desc bool
}

func asc(col int) orderTerm  { return orderTerm{col: col} }
func desc(col int) orderTerm { return orderTerm{col: col, desc: true} }

// referenceOrder answers one case from the model: rows in scan-key order,
// filtered, stably sorted by the ORDER BY terms, then OFFSET and LIMIT.
func referenceOrder(rows []ordRow, oc orderCase, args []any, off, lim int) []ordRow {
	var out []ordRow
	for _, r := range rows {
		if oc.match(r, args) {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		for _, c := range oc.scanKey {
			if d := value.Compare(out[i][c], out[j][c]); d != 0 {
				return d < 0
			}
		}
		return false
	})
	sort.SliceStable(out, func(i, j int) bool {
		for _, t := range oc.order {
			d := value.Compare(out[i][t.col], out[j][t.col])
			if d == 0 {
				continue
			}
			if t.desc {
				return d > 0
			}
			return d < 0
		}
		return false
	})
	if off >= len(out) {
		return nil
	}
	out = out[off:]
	if lim >= 0 && lim < len(out) {
		out = out[:lim]
	}
	return out
}

// renderRows prints rows with each value's kind, so an INTEGER 1 and a REAL
// 1.0 never compare equal by accident.
func renderRows(rows []value.Row) string {
	var b strings.Builder
	for _, r := range rows {
		b.WriteByte('[')
		for i, v := range r {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%v:%s", v.Kind(), v)
		}
		b.WriteString("] ")
	}
	return b.String()
}

func numArg(v value.Value, a any) bool {
	if v.IsNull() {
		return false
	}
	av, _ := value.FromGo(a)
	return value.Compare(v, av) == 0
}

func cmpArg(v value.Value, a any) int {
	av, _ := value.FromGo(a)
	return value.Compare(v, av)
}

// TestOrderByLimitDifferential checks ORDER BY … LIMIT/OFFSET against a Go
// reference over every access path a single-table select can take: a full
// scan, a point lookup, a primary-key prefix or range, and a secondary-index
// equality prefix or range. Directions are ASC and DESC, with and without
// ties, and the data holds NULLs, negatives, and integers and floats mixed
// in REAL columns, so the key codec's order must agree with value.Compare.
// Every case runs on the committed state and again inside a transaction
// whose buffered inserts, updates and deletes move rows into and out of the
// scanned ranges. Results must equal the reference exactly, tie order
// included.
func TestOrderByLimitDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := newHarness(t)
	h.ddl(`CREATE TABLE o (id INTEGER PRIMARY KEY, g INTEGER, r REAL, s TEXT);
	       CREATE INDEX o_gr ON o (g, r);
	       CREATE INDEX o_s ON o (s);
	       CREATE TABLE c (a INTEGER, b REAL, v TEXT, PRIMARY KEY (a, b))`)

	// Small domains make ties and NULLs common. REAL values arrive as
	// INTEGER and FLOAT arguments alike; the column stores them as REAL.
	reals := []any{-3, -2.5, -1, -0.5, math.Copysign(0, -1), 0, 0.0, 0.5, 1, 1.0, 2, 2.5, 7,
		math.NaN(), math.Copysign(math.NaN(), -1)}
	texts := []any{"", "a", "ab", "b", "ba", "z"}
	randOrNull := func(dom []any) any {
		if rng.Intn(6) == 0 {
			return nil
		}
		return dom[rng.Intn(len(dom))]
	}
	randG := func() any {
		if rng.Intn(8) == 0 {
			return nil
		}
		return rng.Intn(7) - 3
	}
	model := func(vals ...any) ordRow {
		r := make(ordRow, len(vals))
		for i, a := range vals {
			v, err := value.FromGo(a)
			if err != nil {
				t.Fatal(err)
			}
			r[i] = v
		}
		return r
	}
	toReal := func(r ordRow, col int) ordRow {
		if r[col].Kind() == value.KindInt {
			r[col] = value.Float(float64(r[col].AsInt()))
		}
		return r
	}
	oRows := map[int64]ordRow{}
	for id := int64(-40); id < 120; id++ {
		g, r, s := randG(), randOrNull(reals), randOrNull(texts)
		h.exec(`INSERT INTO o VALUES (?, ?, ?, ?)`, id, g, r, s)
		oRows[id] = toReal(model(id, g, r, s), 2)
	}
	type cKey struct {
		a int64
		b string // b's key encoding: -0 is 0, and every NaN is one key
	}
	cRows := map[cKey]ordRow{}
	for i := 0; i < 120; i++ {
		a := int64(rng.Intn(5) - 2)
		b := reals[rng.Intn(len(reals))]
		row := toReal(model(a, b, randOrNull(texts)), 1)
		k := cKey{a, string(value.EncodeKey(nil, row[1]))}
		if _, dup := cRows[k]; dup {
			continue
		}
		h.exec(`INSERT INTO c VALUES (?, ?, ?)`, a, b, row[2].Go())
		cRows[k] = row
	}

	const oID, oG, oR, oS = 0, 1, 2, 3
	const cA, cB, cV = 0, 1, 2
	pkKey := []int{oID}
	grKey := []int{oG, oR, oID}
	sKey := []int{oS, oID}
	cKeyCols := []int{cA, cB}
	all := func(ordRow, []any) bool { return true }
	gEq := func(r ordRow, a []any) bool { return numArg(r[oG], a[0]) }
	gArg := func(rng *rand.Rand) []any { return []any{rng.Intn(7) - 3} }
	oSel := `SELECT id, g, r, s FROM o `
	cSel := `SELECT a, b, v FROM c `
	var cases []orderCase
	add := func(table, sql string, args func(*rand.Rand) []any, match func(ordRow, []any) bool, scanKey []int, order ...orderTerm) {
		if args == nil {
			args = func(*rand.Rand) []any { return nil }
		}
		cases = append(cases, orderCase{table: table, sql: sql, args: args, match: match, scanKey: scanKey, order: order})
	}
	// Full scans in primary-key order.
	add("o", oSel+`ORDER BY id`, nil, all, pkKey, asc(oID))
	add("o", oSel+`ORDER BY id DESC`, nil, all, pkKey, desc(oID))
	add("o", oSel+`WHERE s IS NOT NULL ORDER BY id DESC`, nil,
		func(r ordRow, _ []any) bool { return !r[oS].IsNull() }, pkKey, desc(oID))
	add("o", oSel+`ORDER BY r DESC`, nil, all, pkKey, desc(oR))
	add("o", oSel+`ORDER BY s, id DESC`, nil, all, pkKey, asc(oS), desc(oID))
	// Primary-key range and point lookup.
	pkRange := func(rng *rand.Rand) []any { lo := rng.Intn(160) - 50; return []any{lo, lo + rng.Intn(60)} }
	inPK := func(r ordRow, a []any) bool { return cmpArg(r[oID], a[0]) >= 0 && cmpArg(r[oID], a[1]) < 0 }
	add("o", oSel+`WHERE id >= ? AND id < ? ORDER BY id`, pkRange, inPK, pkKey, asc(oID))
	add("o", oSel+`WHERE id >= ? AND id < ? ORDER BY id DESC`, pkRange, inPK, pkKey, desc(oID))
	add("o", oSel+`WHERE id = ? ORDER BY s DESC`, func(rng *rand.Rand) []any { return []any{rng.Intn(180) - 50} },
		func(r ordRow, a []any) bool { return numArg(r[oID], a[0]) }, pkKey, desc(oS))
	// Secondary index (g, r) with an equality prefix on g.
	add("o", oSel+`WHERE g = ? ORDER BY r`, gArg, gEq, grKey, asc(oR))
	add("o", oSel+`WHERE g = ? ORDER BY r DESC`, gArg, gEq, grKey, desc(oR))
	add("o", oSel+`WHERE g = ? ORDER BY r, id`, gArg, gEq, grKey, asc(oR), asc(oID))
	add("o", oSel+`WHERE g = ? ORDER BY r DESC, id DESC`, gArg, gEq, grKey, desc(oR), desc(oID))
	add("o", oSel+`WHERE g = ? ORDER BY r ASC, id DESC`, gArg, gEq, grKey, asc(oR), desc(oID))
	add("o", oSel+`WHERE g = ? ORDER BY id DESC`, gArg, gEq, grKey, desc(oID))
	add("o", oSel+`WHERE g = ? AND id > ? ORDER BY r DESC, id DESC`,
		func(rng *rand.Rand) []any { return []any{rng.Intn(7) - 3, rng.Intn(160) - 50} },
		func(r ordRow, a []any) bool { return numArg(r[oG], a[0]) && cmpArg(r[oID], a[1]) > 0 }, grKey, desc(oR), desc(oID))
	add("o", oSel+`WHERE g = ? AND r > ? ORDER BY r DESC, id DESC`,
		func(rng *rand.Rand) []any { return []any{rng.Intn(7) - 3, reals[rng.Intn(len(reals))]} },
		func(r ordRow, a []any) bool { return numArg(r[oG], a[0]) && !r[oR].IsNull() && cmpArg(r[oR], a[1]) > 0 },
		grKey, desc(oR), desc(oID))
	// Secondary index (g, r) walked as a range on g.
	gGt := func(r ordRow, a []any) bool { return !r[oG].IsNull() && cmpArg(r[oG], a[0]) > 0 }
	add("o", oSel+`WHERE g > ? ORDER BY g`, gArg, gGt, grKey, asc(oG))
	add("o", oSel+`WHERE g > ? ORDER BY g DESC`, gArg, gGt, grKey, desc(oG))
	add("o", oSel+`WHERE g > ? ORDER BY g, r`, gArg, gGt, grKey, asc(oG), asc(oR))
	add("o", oSel+`WHERE g > ? ORDER BY g DESC, r DESC, id DESC`, gArg, gGt, grKey, desc(oG), desc(oR), desc(oID))
	// Secondary index on a TEXT column with NULLs and empty strings.
	sArg := func(rng *rand.Rand) []any { return []any{texts[rng.Intn(len(texts))]} }
	sGe := func(r ordRow, a []any) bool { return !r[oS].IsNull() && cmpArg(r[oS], a[0]) >= 0 }
	add("o", oSel+`WHERE s >= ? ORDER BY s`, sArg, sGe, sKey, asc(oS))
	add("o", oSel+`WHERE s >= ? ORDER BY s DESC, id DESC`, sArg, sGe, sKey, desc(oS), desc(oID))
	add("o", oSel+`WHERE s = ? ORDER BY id DESC`, sArg,
		func(r ordRow, a []any) bool { return !r[oS].IsNull() && cmpArg(r[oS], a[0]) == 0 }, sKey, desc(oID))
	// Composite primary key (a INTEGER, b REAL).
	aArg := func(rng *rand.Rand) []any { return []any{rng.Intn(5) - 2} }
	aEq := func(r ordRow, a []any) bool { return numArg(r[cA], a[0]) }
	add("c", cSel+`WHERE a = ? ORDER BY b`, aArg, aEq, cKeyCols, asc(cB))
	add("c", cSel+`WHERE a = ? ORDER BY b DESC`, aArg, aEq, cKeyCols, desc(cB))
	add("c", cSel+`WHERE a = ? AND b > ? ORDER BY b DESC`,
		func(rng *rand.Rand) []any { return []any{rng.Intn(5) - 2, reals[rng.Intn(len(reals))]} },
		func(r ordRow, a []any) bool { return numArg(r[cA], a[0]) && cmpArg(r[cB], a[1]) > 0 }, cKeyCols, desc(cB))
	add("c", cSel+`ORDER BY a DESC, b DESC`, nil, all, cKeyCols, desc(cA), desc(cB))
	add("c", cSel+`ORDER BY a DESC`, nil, all, cKeyCols, desc(cA))
	add("c", cSel+`ORDER BY a, v`, nil, all, cKeyCols, asc(cA), asc(cV))

	limits := []struct {
		sql      string
		off, lim int
	}{
		{"", 0, -1}, {" LIMIT 0", 0, 0}, {" LIMIT 1", 0, 1}, {" LIMIT 3", 0, 3},
		{" LIMIT 1000", 0, 1000}, {" LIMIT 3 OFFSET 2", 2, 3}, {" LIMIT 2 OFFSET 0", 0, 2},
		{" LIMIT 5 OFFSET 1000", 1000, 5}, {" LIMIT 0 OFFSET 1", 1, 0},
	}
	check := func(phase string, tx *txn.Txn) {
		oList := make([]ordRow, 0, len(oRows))
		for _, r := range oRows {
			oList = append(oList, r)
		}
		cList := make([]ordRow, 0, len(cRows))
		for _, r := range cRows {
			cList = append(cList, r)
		}
		for _, oc := range cases {
			rows := oList
			if oc.table == "c" {
				rows = cList
			}
			for draw := 0; draw < 3; draw++ {
				args := oc.args(rng)
				for _, l := range limits {
					got := execIn(t, h, tx, oc.sql+l.sql, args...)
					want := referenceOrder(rows, oc, args, l.off, l.lim)
					wantRows := make([]value.Row, len(want))
					for i, r := range want {
						wantRows[i] = value.Row(r)
					}
					if g, w := renderRows(got.Rows), renderRows(wantRows); g != w {
						t.Fatalf("%s: %s%s %v\n got: %s\nwant: %s", phase, oc.sql, l.sql, args, g, w)
					}
				}
			}
		}
	}

	committed := txn.Begin(h.store)
	check("committed", committed)
	committed.Abort()

	tx := txn.Begin(h.store)
	defer tx.Abort()
	for i := int64(200); i < 240; i++ { // fresh inserts, some removed again
		g, r, s := randG(), randOrNull(reals), randOrNull(texts)
		execIn(t, h, tx, `INSERT INTO o VALUES (?, ?, ?, ?)`, i, g, r, s)
		oRows[i] = toReal(model(i, g, r, s), 2)
		if i%5 == 0 {
			execIn(t, h, tx, `DELETE FROM o WHERE id = ?`, i)
			delete(oRows, i)
		}
	}
	for id := int64(-40); id < 120; id++ {
		switch rng.Intn(6) {
		case 0: // moves between g groups and along r
			g, r := randG(), randOrNull(reals)
			execIn(t, h, tx, `UPDATE o SET g = ?, r = ? WHERE id = ?`, g, r, id)
			row := oRows[id]
			oRows[id] = toReal(model(id, g, r, row[oS].Go()), 2)
		case 1: // moves along s
			s := randOrNull(texts)
			execIn(t, h, tx, `UPDATE o SET s = ? WHERE id = ?`, s, id)
			oRows[id][oS] = model(s)[0]
		case 2:
			execIn(t, h, tx, `DELETE FROM o WHERE id = ?`, id)
			delete(oRows, id)
		case 3: // deleted and re-inserted with new values
			execIn(t, h, tx, `DELETE FROM o WHERE id = ?`, id)
			g, r, s := randG(), randOrNull(reals), randOrNull(texts)
			execIn(t, h, tx, `INSERT INTO o VALUES (?, ?, ?, ?)`, id, g, r, s)
			oRows[id] = toReal(model(id, g, r, s), 2)
		}
	}
	cKeys := make([]cKey, 0, len(cRows))
	for k := range cRows {
		cKeys = append(cKeys, k)
	}
	sort.Slice(cKeys, func(i, j int) bool {
		return cKeys[i].a < cKeys[j].a || cKeys[i].a == cKeys[j].a && cKeys[i].b < cKeys[j].b
	})
	for _, k := range cKeys {
		row := cRows[k]
		if rng.Intn(4) == 0 {
			execIn(t, h, tx, `DELETE FROM c WHERE a = ? AND b = ?`, k.a, row[cB].Go())
			delete(cRows, k)
			continue
		}
		if rng.Intn(4) == 0 {
			v := randOrNull(texts)
			execIn(t, h, tx, `UPDATE c SET v = ? WHERE a = ? AND b = ?`, v, k.a, row[cB].Go())
			row[cV] = model(v)[0]
		}
	}
	for i := 0; i < 30; i++ {
		a := int64(rng.Intn(5) - 2)
		b := reals[rng.Intn(len(reals))]
		row := toReal(model(a, b, randOrNull(texts)), 1)
		k := cKey{a, string(value.EncodeKey(nil, row[1]))}
		if _, dup := cRows[k]; dup {
			continue
		}
		execIn(t, h, tx, `INSERT INTO c VALUES (?, ?, ?)`, a, b, row[2].Go())
		cRows[k] = row
	}
	check("overlay", tx)
}

// TestOrderByLimitStopsTheWalk: when the index yields the ORDER BY order,
// LIMIT stops the walk, so read provenance holds only the rows returned.
func TestOrderByLimitStopsTheWalk(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE posts (postId INTEGER PRIMARY KEY, userId INTEGER, body TEXT);
	       CREATE INDEX posts_by_user ON posts (userId)`)
	for i := 0; i < 100; i++ {
		h.exec(`INSERT INTO posts VALUES (?, ?, 'x')`, i, i%2)
	}
	stmt, err := sqlparse.Parse(`SELECT postId FROM posts WHERE userId = ? ORDER BY postId DESC LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	tx := txn.Begin(h.store)
	defer tx.Abort()
	reads := 0
	ex := &Executor{Tx: tx, Store: h.store, Args: []value.Value{value.Int(1)},
		OnRead: func(string, value.Row) { reads++ }}
	res, err := ex.Select(stmt.(*sqlparse.Select))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rows(res)); got != "[99 97 95 93 91]" {
		t.Fatalf("rows = %s", got)
	}
	if reads != 5 {
		t.Errorf("ORDER BY postId DESC LIMIT 5 over 50 matches read %d rows, want 5", reads)
	}
}

// TestNaNAgreesAcrossAccessPaths: NaN, of either sign, equals NaN and sorts
// above every number, in value.Compare and in the index key alike, so a
// query answers the same through the index on r as through a full scan
// (r + 0 keeps the index out), and the index walk puts NaN where a sort does.
func TestNaNAgreesAcrossAccessPaths(t *testing.T) {
	h := newHarness(t)
	h.ddl(`CREATE TABLE f (id INTEGER PRIMARY KEY, r REAL);
	       CREATE INDEX f_r ON f (r)`)
	h.exec(`INSERT INTO f VALUES (1, 1.0), (2, ?), (3, ?), (4, ?), (5, 2.0)`,
		math.NaN(), math.Copysign(math.NaN(), -1), math.Inf(1))
	for _, c := range []struct {
		where string
		args  []any
		want  string
	}{
		{`WHERE %s = 1 ORDER BY id`, nil, "[1]"},
		{`WHERE %s > 1 ORDER BY id`, nil, "[2 3 4 5]"},
		{`WHERE %s < 2 ORDER BY id`, nil, "[1]"},
		{`WHERE %s = ? ORDER BY id`, []any{math.NaN()}, "[2 3]"},
		{`ORDER BY %s, id LIMIT 10`, nil, "[1 5 4 2 3]"},
		{`ORDER BY %s DESC, id DESC LIMIT 3`, nil, "[3 2 4]"},
	} {
		for _, col := range []string{"r", "r + 0"} {
			q := `SELECT id FROM f ` + fmt.Sprintf(c.where, col)
			if got := fmt.Sprint(rows(h.exec(q, c.args...))); got != c.want {
				t.Errorf("%s: %s, want %s", q, got, c.want)
			}
		}
	}
}

// TestNumericGroupKeysDifferential: GROUP BY, DISTINCT and COUNT(DISTINCT)
// put two numbers in one group exactly when value.Compare calls them equal,
// so the INTEGER 1 meets the REAL 1.0 as it does under = and in a join.
// Over random rows where COALESCE(i, r) is NULL, 1, 1.0, 2, 2.0 or 2.5,
// each query is checked against groups formed with Compare, in one
// partition and in several. Integers past 2^53 stay exact: Compare keeps
// 2^53 and 2^53+1 apart, and so must a group key, though the REAL image of
// 2^53+1 is 2^53.
func TestNumericGroupKeysDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	h := newHarness(t)
	h.ddl(`CREATE TABLE n (id INTEGER PRIMARY KEY, i INTEGER, r REAL);
	       CREATE TABLE big (id INTEGER PRIMARY KEY, i INTEGER)`)
	choices := []value.Value{value.Null, value.Int(1), value.Float(1), value.Int(2), value.Float(2), value.Float(2.5)}
	type group struct {
		rep value.Value // the group's first value, which GROUP BY and DISTINCT show
		n   int64
	}
	var groups []*group
	for id := 0; id < 300; id++ {
		v := choices[rng.Intn(len(choices))]
		i, r := value.Null, value.Null
		if v.Kind() == value.KindInt {
			i = v
		} else {
			r = v
		}
		h.exec(`INSERT INTO n VALUES (?, ?, ?)`, id, i, r)
		k := slices.IndexFunc(groups, func(g *group) bool { return value.Compare(g.rep, v) == 0 })
		if k < 0 {
			groups = append(groups, &group{rep: v})
			k = len(groups) - 1
		}
		groups[k].n++
	}
	var byGroup, distinct []value.Row
	nonNull := int64(0)
	for _, g := range groups {
		byGroup = append(byGroup, value.Row{g.rep, value.Int(g.n)})
		distinct = append(distinct, value.Row{g.rep})
		if !g.rep.IsNull() {
			nonNull++
		}
	}
	h.exec(`INSERT INTO big VALUES (1, ?), (2, ?), (3, ?)`, int64(1<<53), int64(1<<53+1), int64(1<<53))
	for _, c := range []struct {
		sql  string
		want []value.Row
	}{
		{`SELECT COALESCE(i, r), COUNT(*) FROM n GROUP BY COALESCE(i, r)`, byGroup},
		{`SELECT DISTINCT COALESCE(i, r) FROM n`, distinct},
		{`SELECT COUNT(DISTINCT COALESCE(i, r)) FROM n`, []value.Row{{value.Int(nonNull)}}},
		{`SELECT i, COUNT(*) FROM big GROUP BY i`, []value.Row{{value.Int(1 << 53), value.Int(2)}, {value.Int(1<<53 + 1), value.Int(1)}}},
		{`SELECT DISTINCT i FROM big`, []value.Row{{value.Int(1 << 53)}, {value.Int(1<<53 + 1)}}},
		{`SELECT COUNT(DISTINCT i) FROM big`, []value.Row{{value.Int(2)}}},
	} {
		tx := txn.BeginReadOnly(h.store)
		for _, parts := range []int{1, 3} {
			got, _ := runInParts(t, h.store, tx, nil, c.sql, parts)
			if _, rendered, _ := strings.Cut(got, " → "); rendered != renderRows(c.want) {
				t.Errorf("%s in %d partitions:\n got %s\nwant %s", c.sql, parts, got, renderRows(c.want))
			}
		}
		tx.Abort()
	}
}
