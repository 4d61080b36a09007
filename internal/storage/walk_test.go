package storage

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// TestBTreeDescendMirrorsAscend: over random keys, bounds (including ""
// for unbounded) and early stops, a descending walk visits exactly the keys
// of the ascending walk of the same range, reversed. Deletes leave the
// unbalanced and empty nodes that both walks must tolerate.
func TestBTreeDescendMirrorsAscend(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	randKey := func() string {
		b := make([]byte, 1+rng.Intn(3))
		for i := range b {
			b[i] = "abcdef\x00\xff"[rng.Intn(8)]
		}
		return string(b)
	}
	for round := 0; round < 30; round++ {
		tr := newBTree[int]()
		n := rng.Intn(3000)
		for i := 0; i < n; i++ {
			tr.Set(randKey(), i)
		}
		for i := 0; i < n/2; i++ {
			tr.Delete(randKey())
		}
		for q := 0; q < 50; q++ {
			lo, hi := "", ""
			if rng.Intn(3) > 0 {
				lo = randKey()
			}
			if rng.Intn(3) > 0 {
				hi = randKey()
			}
			var asc []string
			tr.Range(lo, hi, Ascending, func(k string, _ int) bool {
				asc = append(asc, k)
				return true
			})
			if !sort.StringsAreSorted(asc) {
				t.Fatalf("ascending walk out of order: %q", asc)
			}
			stop := len(asc) + 1 // never stops early
			if len(asc) > 0 && rng.Intn(2) == 0 {
				stop = 1 + rng.Intn(len(asc))
			}
			var desc []string
			complete := tr.Range(lo, hi, Descending, func(k string, _ int) bool {
				desc = append(desc, k)
				return len(desc) < stop
			})
			slices.Reverse(asc)
			want := asc[:min(stop, len(asc))]
			if !slices.Equal(desc, want) {
				t.Fatalf("round %d [%q, %q) stop %d: descending %q, want %q", round, lo, hi, stop, desc, want)
			}
			if complete != (stop > len(asc)) {
				t.Fatalf("round %d [%q, %q): descending walk reported complete=%v after %d of %d keys", round, lo, hi, complete, len(desc), len(asc))
			}
		}
	}
}

// TestBTreeRangeBounds walks a three-level tree, in both directions, over
// the bounds a per-node walk places by search: empty and inverted ranges,
// bounds equal to separator keys at the root and below it, and bounds
// inside the last child and past every key. Each walk must visit exactly
// the sorted keys in [lo, hi).
func TestBTreeRangeBounds(t *testing.T) {
	tr := newBTree[int]()
	var keys []string
	for i := 0; i < 20000; i += 2 {
		k := fmt.Sprintf("k%05d", i)
		tr.Set(k, i)
		keys = append(keys, k)
	}
	root := tr.root
	if root.leaf() || root.children[0].leaf() {
		t.Fatal("want a tree of at least three levels")
	}
	rootSep := root.keys[len(root.keys)/2]
	innerSep := root.children[0].keys[1]
	lastSep := root.keys[len(root.keys)-1]
	lastChild := root.children[len(root.children)-1]
	for !lastChild.leaf() {
		lastChild = lastChild.children[len(lastChild.children)-1]
	}
	inLast := lastChild.keys[len(lastChild.keys)/2]
	odd := func(k string) string { return k[:len(k)-1] + string(k[len(k)-1]+1) } // between two keys
	cases := []struct{ name, lo, hi string }{
		{"lo > hi", rootSep, innerSep},
		{"lo > hi, neither a key", odd(rootSep), odd(innerSep)},
		{"lo == hi at a separator", rootSep, rootSep},
		{"lo == hi between keys", odd(innerSep), odd(innerSep)},
		{"hi at the root separator", "", rootSep},
		{"hi at an inner separator", innerSep, rootSep},
		{"lo and hi at inner and root separators", innerSep, lastSep},
		{"hi at the last root separator", odd(innerSep), lastSep},
		{"hi inside the last child", rootSep, inLast},
		{"hi between keys of the last child", odd(lastSep), odd(inLast)},
		{"lo inside the last child", inLast, ""},
		{"hi past every key", innerSep, "l"},
		{"lo past every key", "l", ""},
		{"unbounded", "", ""},
	}
	for _, c := range cases {
		var want []string
		for _, k := range keys {
			if k >= c.lo && (c.hi == "" || k < c.hi) {
				want = append(want, k)
			}
		}
		var asc, desc []string
		tr.Range(c.lo, c.hi, Ascending, func(k string, _ int) bool { asc = append(asc, k); return true })
		tr.Range(c.lo, c.hi, Descending, func(k string, _ int) bool { desc = append(desc, k); return true })
		if !slices.Equal(asc, want) {
			t.Errorf("%s [%q, %q): ascending visited %d keys, want %d", c.name, c.lo, c.hi, len(asc), len(want))
		}
		slices.Reverse(desc)
		if !slices.Equal(desc, want) {
			t.Errorf("%s [%q, %q): descending visited %d keys, want %d", c.name, c.lo, c.hi, len(desc), len(want))
		}
	}
}

// walkTable is a table with a non-unique secondary index on its value
// column, for walks over versioned rows and postings.
func walkTable(t *testing.T) (*Store, *schema.Table) {
	t.Helper()
	s := NewStore()
	tbl := mustTable(t, "w", []schema.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "v", Type: value.KindInt},
	}, []string{"id"})
	if err := s.CreateTable(tbl, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateIndex(&schema.Index{Name: "w_v", Table: "w", Columns: []int{1}}, nil); err != nil {
		t.Fatal(err)
	}
	return s, tbl
}

// walkKeys is what one walk of each kind returns: the primary keys a
// ScanRange visits and the (index key, primary key) pairs an IndexScanRows
// visits, in visit order.
func walkKeys(t *testing.T, s *Store, lo, hi, ixLo, ixHi string, seq uint64, dir Direction) (rows, posts []string) {
	t.Helper()
	s.ScanRange("w", lo, hi, seq, dir, func(k string, _ value.Row) bool {
		rows = append(rows, k)
		return true
	})
	if err := s.IndexScanRows("w", "w_v", ixLo, ixHi, seq, dir, func(k, pk string, row value.Row) bool {
		posts = append(posts, k+"|"+pk)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rows, posts
}

// randomWalkCommit commits a random insert, update (which moves the row's
// index posting) or delete against the model of live rows.
func randomWalkCommit(t testing.TB, rng *rand.Rand, s *Store, tbl *schema.Table, live map[int64]int64) {
	id := int64(rng.Intn(200))
	v := int64(rng.Intn(20) - 10)
	after := value.Row{value.Int(id), value.Int(v)}
	ch := Change{Table: "w", Key: tbl.EncodePrimaryKey(after), Op: OpInsert, After: after}
	if old, ok := live[id]; ok {
		ch.Before = value.Row{value.Int(id), value.Int(old)}
		ch.Op = OpUpdate
		if rng.Intn(3) == 0 {
			ch.Op, ch.After = OpDelete, nil
		}
	}
	if _, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(), Changes: []Change{ch}}, nil); err != nil {
		t.Fatal(err)
	}
	if ch.Op == OpDelete {
		delete(live, id)
	} else {
		live[id] = v
	}
}

// TestReverseWalksAtOldSeq: reverse ScanRange and IndexScanRows at every
// past seq, over rows with superseded versions and tombstones and postings
// that moved, return the forward walk reversed, and exactly the rows that
// were live at that seq.
func TestReverseWalksAtOldSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s, tbl := walkTable(t)
	live := map[int64]int64{}
	history := map[uint64]map[int64]int64{}
	for i := 0; i < 600; i++ {
		randomWalkCommit(t, rng, s, tbl, live)
		history[s.CurrentSeq()] = maps.Clone(live)
	}
	pk := func(id int64) string { return tbl.EncodePrimaryKey(value.Row{value.Int(id), value.Null}) }
	ixKey := func(v int64) string { return string(value.EncodeKey(nil, value.Int(v))) }
	ix := s.Indexes("w")[0]
	for seq, model := range history {
		lo, hi := "", ""
		if rng.Intn(2) == 0 {
			lo = pk(int64(rng.Intn(200)))
		}
		if rng.Intn(2) == 0 {
			hi = pk(int64(rng.Intn(200)))
		}
		ixLo, ixHi := "", ""
		if rng.Intn(2) == 0 {
			ixLo = ixKey(int64(rng.Intn(20) - 10))
		}
		if rng.Intn(2) == 0 {
			ixHi = ixKey(int64(rng.Intn(20) - 10))
		}
		fwdRows, fwdPosts := walkKeys(t, s, lo, hi, ixLo, ixHi, seq, Ascending)
		revRows, revPosts := walkKeys(t, s, lo, hi, ixLo, ixHi, seq, Descending)
		slices.Reverse(revRows)
		slices.Reverse(revPosts)
		if !slices.Equal(fwdRows, revRows) || !slices.Equal(fwdPosts, revPosts) {
			t.Fatalf("seq %d: reverse walks are not the forward walks reversed", seq)
		}
		var wantRows, wantPosts []string
		for id, v := range model {
			if k := pk(id); k >= lo && (hi == "" || k < hi) {
				wantRows = append(wantRows, k)
			}
			row := value.Row{value.Int(id), value.Int(v)}
			if k := ix.EncodeIndexKey(tbl, row); k >= ixLo && (ixHi == "" || k < ixHi) {
				wantPosts = append(wantPosts, k+"|"+pk(id))
			}
		}
		sort.Strings(wantRows)
		sort.Strings(wantPosts)
		if !slices.Equal(fwdRows, wantRows) || !slices.Equal(fwdPosts, wantPosts) {
			t.Fatalf("seq %d: walks returned %d rows / %d postings, model has %d / %d",
				seq, len(fwdRows), len(fwdPosts), len(wantRows), len(wantPosts))
		}
	}
}

// TestReverseWalksUnderConcurrentWriter: while a writer commits, reverse
// walks at a fixed seq keep returning the forward walk reversed (run it
// under -race).
func TestReverseWalksUnderConcurrentWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s, tbl := walkTable(t)
	live := map[int64]int64{}
	for i := 0; i < 300; i++ {
		randomWalkCommit(t, rng, s, tbl, live)
	}
	seq := s.CurrentSeq()
	fwdRows, fwdPosts := walkKeys(t, s, "", "", "", "", seq, Ascending)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(14))
		for i := 0; i < 400; i++ {
			randomWalkCommit(t, wrng, s, tbl, live)
		}
		close(done)
	}()
	for reads := 0; ; reads++ {
		revRows, revPosts := walkKeys(t, s, "", "", "", "", seq, Descending)
		slices.Reverse(revRows)
		slices.Reverse(revPosts)
		if !slices.Equal(fwdRows, revRows) || !slices.Equal(fwdPosts, revPosts) {
			t.Fatalf("read %d at seq %d: the reverse walks changed while a writer ran", reads, seq)
		}
		select {
		case <-done:
			wg.Wait()
			return
		default:
		}
	}
}

// TestRangeWalkEarlyStop: fn returning false stops a store walk in either
// direction.
func TestRangeWalkEarlyStop(t *testing.T) {
	s, tbl := walkTable(t)
	live := map[int64]int64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		randomWalkCommit(t, rng, s, tbl, live)
	}
	for _, dir := range []Direction{Ascending, Descending} {
		n := 0
		s.ScanRange("w", "", "", s.CurrentSeq(), dir, func(string, value.Row) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Errorf("direction %d: ScanRange visited %d rows after fn returned false at 3", dir, n)
		}
	}
}

// TestBTreeSplitKeys: over random trees, sequential and random inserts and
// deletes that leave unbalanced and empty nodes, splitKeys returns at most
// n-1 strictly increasing stored keys, and the ranges they cut hold every
// key exactly once. Once a tree has more than n keys it is cut into n
// ranges, none of them more than half the tree when n > 2.
func TestBTreeSplitKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 40; round++ {
		tr := newBTree[int]()
		size := rng.Intn(5000)
		for i := 0; i < size; i++ {
			if round%2 == 0 {
				tr.Set(string(value.EncodeKey(nil, value.Int(int64(i)))), i)
			} else {
				tr.Set(string(value.EncodeKey(nil, value.Int(rng.Int63n(10000)))), i)
			}
		}
		for i := 0; i < size/3; i++ {
			tr.Delete(string(value.EncodeKey(nil, value.Int(rng.Int63n(int64(size)+1)))))
		}
		for n := 1; n <= 9; n++ {
			keys := tr.splitKeys(n)
			if len(keys) > max(n-1, 0) {
				t.Fatalf("round %d n=%d: %d split keys", round, n, len(keys))
			}
			for i, k := range keys {
				if _, ok := tr.Get(k); !ok || (i > 0 && keys[i-1] >= k) {
					t.Fatalf("round %d n=%d: split keys %q not increasing stored keys", round, n, keys)
				}
			}
			bounds := append(append([]string{""}, keys...), "")
			total, largest := 0, 0
			for i := 0; i+1 < len(bounds); i++ {
				c := 0
				tr.Range(bounds[i], bounds[i+1], Ascending, func(string, int) bool { c++; return true })
				total += c
				largest = max(largest, c)
			}
			if total != tr.Len() {
				t.Fatalf("round %d n=%d: ranges hold %d keys, tree %d", round, n, total, tr.Len())
			}
			if tr.Len() > n && len(keys) != n-1 {
				t.Fatalf("round %d n=%d: %d keys cut into %d ranges", round, n, tr.Len(), len(keys)+1)
			}
			if n > 2 && tr.Len() > 64*n && largest > tr.Len()/2 {
				t.Fatalf("round %d n=%d: a range holds %d of %d keys", round, n, largest, tr.Len())
			}
		}
	}
}
