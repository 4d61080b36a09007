package txn

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/schema"
	"repro/internal/storage"
	"repro/internal/value"
)

// setupIndexed builds a users(id INT PK, city TEXT) table with a non-unique
// secondary index on city and three committed rows.
func setupIndexed(t *testing.T) (*storage.Store, *schema.Table, *schema.Index) {
	t.Helper()
	s := storage.NewStore()
	tbl, err := schema.NewTable("users", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "city", Type: value.KindText},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	ix := &schema.Index{Name: "i_city", Table: "users", Columns: []int{1}}
	if err := s.CreateIndex(ix, nil); err != nil {
		t.Fatal(err)
	}
	if err := Run(s, func(tx *Txn) error {
		for _, r := range []value.Row{
			{value.Int(1), value.Text("sf")},
			{value.Int(2), value.Text("nyc")},
			{value.Int(3), value.Text("sf")},
		} {
			if err := tx.Insert(tbl, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return s, tbl, ix
}

func userRow(id int64, city string) value.Row {
	return value.Row{value.Int(id), value.Text(city)}
}

// TestIndexScanMergesLocalWrites: buffered inserts, updates, and deletes are
// merged into index order and shadow their committed images.
func TestIndexScanMergesLocalWrites(t *testing.T) {
	s, tbl, ix := setupIndexed(t)
	tx := Begin(s)
	defer tx.Abort()
	if err := tx.Insert(tbl, userRow(4, "sf")); err != nil { // new posting
		t.Fatal(err)
	}
	if err := tx.Update(tbl, userRow(2, "sf")); err != nil { // nyc -> sf
		t.Fatal(err)
	}
	if _, err := tx.Delete(tbl, tbl.EncodePrimaryKey(userRow(3, ""))); err != nil { // hidden
		t.Fatal(err)
	}
	if err := tx.Update(tbl, userRow(1, "la")); err != nil { // sf -> la
		t.Fatal(err)
	}
	var got []string
	if err := tx.IndexScan(tbl, ix, "", "", func(_ string, r value.Row) bool {
		got = append(got, fmt.Sprintf("%d=%s", r[0].AsInt(), r[1].AsText()))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// Index order: (city, pk) => la/1, sf/2, sf/4.
	want := "[1=la 2=sf 4=sf]"
	if fmt.Sprint(got) != want {
		t.Errorf("merged index scan = %v, want %v", got, want)
	}

	// Range-restricted scan sees only the sf postings.
	enc := string(value.EncodeKey(nil, value.Text("sf")))
	got = got[:0]
	if err := tx.IndexScan(tbl, ix, enc, enc+"\xff", func(_ string, r value.Row) bool {
		got = append(got, fmt.Sprintf("%d", r[0].AsInt()))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[2 4]" {
		t.Errorf("sf range scan = %v, want [2 4]", got)
	}

	// Early stop works across the merge.
	count := 0
	if err := tx.IndexScan(tbl, ix, "", "", func(string, value.Row) bool {
		count++
		return count < 2
	}); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Errorf("early stop visited %d postings", count)
	}
}

// TestIndexScanMatchesFullScanOracle cross-checks IndexScan against Scan
// under randomized-ish local mutations: both must see the same set of rows.
func TestIndexScanMatchesFullScanOracle(t *testing.T) {
	s, tbl, ix := setupIndexed(t)
	tx := Begin(s)
	defer tx.Abort()
	for i := int64(10); i < 30; i++ {
		city := fmt.Sprintf("c%d", i%7)
		if err := tx.Insert(tbl, userRow(i, city)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Update(tbl, userRow(1, "c3")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Delete(tbl, tbl.EncodePrimaryKey(userRow(2, ""))); err != nil {
		t.Fatal(err)
	}
	fromIndex := map[int64]string{}
	if err := tx.IndexScan(tbl, ix, "", "", func(_ string, r value.Row) bool {
		fromIndex[r[0].AsInt()] = r[1].AsText()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	fromScan := map[int64]string{}
	if err := tx.Scan("users", "", "", func(_ string, r value.Row) bool {
		fromScan[r[0].AsInt()] = r[1].AsText()
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(fromIndex) != len(fromScan) {
		t.Fatalf("index scan saw %d rows, full scan %d", len(fromIndex), len(fromScan))
	}
	for id, city := range fromScan {
		if fromIndex[id] != city {
			t.Errorf("id %d: index scan %q, full scan %q", id, fromIndex[id], city)
		}
	}
}

// TestIndexScanRecordsPreciseRange: IndexScan must record an index-key range
// — not a whole-table range — in the read set.
func TestIndexScanRecordsPreciseRange(t *testing.T) {
	s, tbl, ix := setupIndexed(t)
	tx := Begin(s)
	defer tx.Abort()
	enc := string(value.EncodeKey(nil, value.Text("sf")))
	if err := tx.IndexScan(tbl, ix, enc, enc+"\xff", func(string, value.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	rs := tx.ReadSet()
	if len(rs.Ranges) != 0 {
		t.Errorf("index scan must not record table ranges, got %v", rs.Ranges)
	}
	if len(rs.IndexRanges) != 1 {
		t.Fatalf("index ranges = %v, want exactly one", rs.IndexRanges)
	}
	ir := rs.IndexRanges[0]
	if ir.Table != "users" || ir.Index != strings.ToLower(ix.Name) || ir.Lo != enc || ir.Hi != enc+"\xff" {
		t.Errorf("recorded range = %+v", ir)
	}
	// Re-running the same scan collapses into the same entry.
	if err := tx.IndexScan(tbl, ix, enc, enc+"\xff", func(string, value.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if len(rs.IndexRanges) != 1 {
		t.Errorf("duplicate scan recorded %d ranges", len(tx.ReadSet().IndexRanges))
	}
}

// TestDisjointIndexWritersCommit: two transactions that each scan and write
// disjoint index ranges both commit — the precise OCC ranges replaced the
// whole-table conservative range that used to abort the second writer.
func TestDisjointIndexWritersCommit(t *testing.T) {
	s, tbl, ix := setupIndexed(t)
	scanCity := func(tx *Txn, city string) int {
		enc := string(value.EncodeKey(nil, value.Text(city)))
		n := 0
		if err := tx.IndexScan(tbl, ix, enc, enc+"\xff", func(string, value.Row) bool {
			n++
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return n
	}

	tx1 := Begin(s)
	tx2 := Begin(s)
	scanCity(tx1, "sf")
	scanCity(tx2, "nyc")
	if err := tx1.Insert(tbl, userRow(100, "sf")); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Insert(tbl, userRow(200, "nyc")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Commit(); err != nil {
		t.Fatalf("tx1: %v", err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatalf("tx2 touches a disjoint index range and must commit: %v", err)
	}

	// Control: a reader of the sf range begun before tx3's sf insert must
	// still abort — precision must not lose real conflicts.
	tx4 := Begin(s)
	scanCity(tx4, "sf")
	tx3 := Begin(s)
	if err := tx3.Insert(tbl, userRow(101, "sf")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx4.Insert(tbl, userRow(300, "reno")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx4.Commit(); err == nil {
		t.Fatal("overlapping index range reader must still conflict")
	}
}

// TestIndexScanUniquePendingDuplicate: a buffered insert duplicating a
// committed unique key is visible to both access paths (matching full-scan
// semantics) and the commit is rejected.
func TestIndexScanUniquePendingDuplicate(t *testing.T) {
	s := storage.NewStore()
	tbl, err := schema.NewTable("accts", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "email", Type: value.KindText},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	ux := &schema.Index{Name: "ux", Table: "accts", Columns: []int{1}, Unique: true}
	if err := s.CreateIndex(ux, nil); err != nil {
		t.Fatal(err)
	}
	if err := Run(s, func(tx *Txn) error {
		return tx.Insert(tbl, value.Row{value.Int(1), value.Text("a@x")})
	}); err != nil {
		t.Fatal(err)
	}
	tx := Begin(s)
	if err := tx.Insert(tbl, value.Row{value.Int(2), value.Text("a@x")}); err != nil {
		t.Fatal(err)
	}
	var pks []int64
	if err := tx.IndexScan(tbl, ux, "", "", func(_ string, r value.Row) bool {
		pks = append(pks, r[0].AsInt())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pks) != 2 {
		t.Errorf("pending duplicate: index scan saw %v, want both rows", pks)
	}
	if _, err := tx.Commit(); err == nil || !strings.Contains(err.Error(), "unique") {
		t.Fatalf("commit must fail with a unique violation, got %v", err)
	}
}

// TestIndexScanDirKeepsEqualKeyOrder: a reverse walk visits distinct index
// keys in reverse, but postings that share one key (a buffered row claiming
// a committed unique key, until commit rejects it) keep the forward walk's
// relative order — committed first, then buffered by primary key — so a
// stable sort over a forward walk and a reverse walk agree on ties.
func TestIndexScanDirKeepsEqualKeyOrder(t *testing.T) {
	s := storage.NewStore()
	tbl, err := schema.NewTable("accts", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "email", Type: value.KindText},
	}, []string{"id"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	ux := &schema.Index{Name: "ux", Table: "accts", Columns: []int{1}, Unique: true}
	if err := s.CreateIndex(ux, nil); err != nil {
		t.Fatal(err)
	}
	if err := Run(s, func(tx *Txn) error {
		for _, r := range []value.Row{
			{value.Int(5), value.Text("a")},
			{value.Int(9), value.Text("m")},
			{value.Int(1), value.Text("z")},
		} {
			if err := tx.Insert(tbl, r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tx := Begin(s)
	defer tx.Abort()
	for _, r := range []value.Row{
		{value.Int(7), value.Text("m")},
		{value.Int(3), value.Text("m")},
		{value.Int(4), value.Text("b")},
	} {
		if err := tx.Insert(tbl, r); err != nil {
			t.Fatal(err)
		}
	}
	walk := func(dir storage.Direction) string {
		var out []string
		if err := tx.IndexScanDir(tbl, ux, "", "", dir, func(_ string, r value.Row) bool {
			out = append(out, fmt.Sprintf("%s%d", r[1].AsText(), r[0].AsInt()))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return strings.Join(out, " ")
	}
	if got, want := walk(storage.Ascending), "a5 b4 m9 m3 m7 z1"; got != want {
		t.Errorf("ascending walk = %s, want %s", got, want)
	}
	if got, want := walk(storage.Descending), "z1 m9 m3 m7 b4 a5"; got != want {
		t.Errorf("descending walk = %s, want %s", got, want)
	}
}
