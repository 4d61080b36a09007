package storage

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// postingRows lists what IndexScanRows yields for index ix of table w over
// [lo, hi) at seq, in dir's order, as "indexKey|pk|row" strings.
func postingRows(t testing.TB, s *Store, ix, lo, hi string, seq uint64, dir Direction) []string {
	t.Helper()
	out := []string{}
	if err := s.IndexScanRows("w", ix, lo, hi, seq, dir, func(k, pk string, row value.Row) bool {
		out = append(out, k+"|"+pk+"|"+row.String())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// checkPostingRows is the oracle for the row a posting points at: for every
// index of table w, IndexScanRows at seq yields, in both directions, what
// IndexScanRange's postings resolved by Get yield. It returns the
// ascending walks, index by index, for comparing two stores.
func checkPostingRows(t testing.TB, s *Store, seq uint64, rng *rand.Rand) [][]string {
	t.Helper()
	var walks [][]string
	for _, ix := range s.Indexes("w") {
		lo, hi := "", ""
		if rng.Intn(3) == 0 {
			lo = string(value.EncodeKey(nil, value.Int(int64(rng.Intn(20)-10))))
		}
		if rng.Intn(3) == 0 {
			hi = string(value.EncodeKey(nil, value.Int(int64(rng.Intn(20)-10))))
		}
		var postings [][2]string
		if err := s.IndexScanRange("w", ix.Name, lo, hi, seq, func(k, pk string) bool {
			postings = append(postings, [2]string{k, pk})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		want := []string{}
		for _, p := range postings {
			if row, ok := s.Get("w", p[1], seq); ok {
				want = append(want, p[0]+"|"+p[1]+"|"+row.String())
			}
		}
		asc := postingRows(t, s, ix.Name, lo, hi, seq, Ascending)
		desc := postingRows(t, s, ix.Name, lo, hi, seq, Descending)
		slices.Reverse(desc)
		if !slices.Equal(asc, want) || !slices.Equal(desc, want) {
			t.Fatalf("index %s at seq %d [%q, %q): IndexScanRows gave %q ascending and %q descending, postings plus Get give %q",
				ix.Name, seq, lo, hi, asc, desc, want)
		}
		if lo == "" && hi == "" {
			walks = append(walks, asc)
		} else {
			walks = append(walks, postingRows(t, s, ix.Name, "", "", seq, Ascending))
		}
	}
	return walks
}

// postingCommit commits one to three changes to distinct rows of w: an
// insert (often of a primary key deleted earlier), an update that moves the
// row's index key, or a delete. It returns the committed record.
func postingCommit(rng *rand.Rand, s *Store, tbl *schema.Table, live map[int64]int64) (CommitRecord, error) {
	var changes []Change
	next := map[int64]int64{}
	deleted := map[int64]bool{}
	for n := 1 + rng.Intn(3); len(changes) < n; {
		id := int64(rng.Intn(60))
		if _, dup := next[id]; dup || deleted[id] {
			continue
		}
		v := int64(rng.Intn(20) - 10)
		after := value.Row{value.Int(id), value.Int(v)}
		ch := Change{Table: "w", Key: tbl.EncodePrimaryKey(after), Op: OpInsert, After: after}
		if old, ok := live[id]; ok {
			ch.Before, ch.Op = value.Row{value.Int(id), value.Int(old)}, OpUpdate
			if rng.Intn(3) == 0 {
				ch.Op, ch.After = OpDelete, nil
			}
		}
		if ch.Op == OpDelete {
			deleted[id] = true
		} else {
			next[id] = v
		}
		changes = append(changes, ch)
	}
	seq, err := s.Commit(CommitRequest{TxnID: s.NextTxnID(), Snapshot: s.CurrentSeq(), Changes: changes}, nil)
	if err != nil {
		return CommitRecord{}, err
	}
	for id := range deleted {
		delete(live, id)
	}
	for id, v := range next {
		live[id] = v
	}
	return CommitRecord{Seq: seq, Changes: changes}, nil
}

// TestPostingRowsAgainstPostingsPlusGet replays random histories on a
// store and, by ApplyCommitted, on a replica: updates that move index keys,
// deletes and re-inserts of one primary key, Vacuum at random horizons
// (which unlinks dead rows, so a re-insert gets a new chain), a CREATE
// INDEX midway, a restart from EncodeSnapshot, and CloneAt. At every
// retained seq of each store, and of every clone, the row each posting
// points at must be the row Get finds at its primary key; the store and
// its replica must agree wherever both retain history.
func TestPostingRowsAgainstPostingsPlusGet(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, tbl := walkTable(t)
		replica, _ := walkTable(t)
		live := map[int64]int64{}
		indexed := false
		const steps = 300
		for step := 0; step < steps; step++ {
			switch r := rng.Intn(100); {
			case r < 80:
				rec, err := postingCommit(rng, s, tbl, live)
				if err != nil {
					t.Fatal(err)
				}
				if err := replica.ApplyCommitted(rec, nil); err != nil {
					t.Fatal(err)
				}
			case r < 88:
				for _, st := range []*Store{s, replica} {
					floor := st.HistoryRetainedFrom()
					st.Vacuum(floor + uint64(rng.Int63n(int64(st.CurrentSeq()-floor+1))))
				}
			case r < 91:
				img, _ := s.EncodeSnapshot()
				restored, err := DecodeSnapshot(img)
				if err != nil {
					t.Fatal(err)
				}
				s = restored
			case r < 95:
				floor := s.HistoryRetainedFrom()
				clone, err := s.CloneAt(floor + uint64(rng.Int63n(int64(s.CurrentSeq()-floor+1))))
				if err != nil {
					t.Fatal(err)
				}
				for seq := clone.HistoryRetainedFrom(); seq <= clone.CurrentSeq(); seq++ {
					checkPostingRows(t, clone, seq, rng)
				}
			case !indexed:
				indexed = true
				for _, st := range []*Store{s, replica} {
					if err := st.CreateIndex(&schema.Index{Name: "w_v2", Table: "w", Columns: []int{1}}, nil); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Every retained seq once in a while, and at the end; the newest
			// one after every step.
			first := s.CurrentSeq()
			if step%25 == 0 || step == steps-1 {
				first = min(s.HistoryRetainedFrom(), replica.HistoryRetainedFrom())
			}
			from := max(s.HistoryRetainedFrom(), replica.HistoryRetainedFrom())
			for seq := first; seq <= s.CurrentSeq(); seq++ {
				var a, b [][]string
				if seq >= s.HistoryRetainedFrom() {
					a = checkPostingRows(t, s, seq, rng)
				}
				if seq >= replica.HistoryRetainedFrom() {
					b = checkPostingRows(t, replica, seq, rng)
				}
				if seq >= from && !slices.EqualFunc(a, b, slices.Equal[[]string]) {
					t.Fatalf("seed %d seq %d: the store's index walks %q differ from its replica's %q", seed, seq, a, b)
				}
			}
		}
		if !indexed {
			t.Fatalf("seed %d: the history never created its second index", seed)
		}
	}
}

// TestPostingRowsUnderConcurrentWriter runs the oracle at pinned snapshots
// while a writer commits and vacuums up to the newest seq, so that dead
// rows are unlinked and their keys re-inserted as new chains under the
// reader (run it under -race).
func TestPostingRowsUnderConcurrentWriter(t *testing.T) {
	s, tbl := walkTable(t)
	live := map[int64]int64{}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		if _, err := postingCommit(rng, s, tbl, live); err != nil {
			t.Fatal(err)
		}
	}
	start := s.CurrentSeq()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(22))
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := postingCommit(wrng, s, tbl, live); err != nil {
				t.Error(err)
				return
			}
			if wrng.Intn(10) == 0 {
				s.Vacuum(s.CurrentSeq())
			}
		}
	}()
	for reads := 0; reads < 300; reads++ {
		seq := s.PinSnapshot()
		checkPostingRows(t, s, seq, rng)
		s.UnpinSnapshot(seq)
	}
	close(stop)
	wg.Wait()
	if s.CurrentSeq() == start {
		t.Fatal("the writer committed nothing while the reads ran")
	}
}
