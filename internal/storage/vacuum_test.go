package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

// mutateKV commits one update or delete (after == nil) against the kv table.
func mutateKV(t *testing.T, s *Store, k string, before, after value.Row) uint64 {
	t.Helper()
	op := OpUpdate
	if after == nil {
		op = OpDelete
	}
	key := schema.EncodeKeyTuple(value.Row{value.Text(k)})
	seq, err := s.Commit(CommitRequest{
		TxnID:    s.NextTxnID(),
		Snapshot: s.CurrentSeq(),
		Changes:  []Change{{Table: "kv", Key: key, Op: op, Before: before, After: after}},
	}, nil)
	if err != nil {
		t.Fatalf("mutate %s: %v", k, err)
	}
	return seq
}

// readAll collects the kv table's visible rows at seq as "k=v" strings.
func readAll(s *Store, seq uint64) []string {
	var out []string
	s.ScanRange("kv", "", "", seq, Ascending, func(_ string, row value.Row) bool {
		out = append(out, fmt.Sprintf("%s=%d", row[0].AsText(), row[1].AsInt()))
		return true
	})
	return out
}

// TestVacuumDifferentialVisibility is the core GC correctness check: every
// read at or after the vacuum horizon must observe exactly the same rows
// after the vacuum as before it.
func TestVacuumDifferentialVisibility(t *testing.T) {
	s, tbl := newKVStore(t)
	rng := rand.New(rand.NewSource(42))
	live := map[string]int64{}
	// A churny history: inserts, updates, deletes over a small key space.
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("k%02d", rng.Intn(20))
		switch cur, ok := live[k]; {
		case !ok:
			insertKV(t, s, tbl, k, int64(i))
			live[k] = int64(i)
		case rng.Intn(3) == 0:
			mutateKV(t, s, k, value.Row{value.Text(k), value.Int(cur)}, nil)
			delete(live, k)
		default:
			mutateKV(t, s, k, value.Row{value.Text(k), value.Int(cur)}, value.Row{value.Text(k), value.Int(int64(i))})
			live[k] = int64(i)
		}
	}
	head := s.CurrentSeq()
	horizon := head - 100

	before := map[uint64][]string{}
	for seq := horizon; seq <= head; seq++ {
		before[seq] = readAll(s, seq)
	}
	st := s.Vacuum(horizon)
	if st.LastHorizon != horizon {
		t.Fatalf("effective horizon = %d, want %d", st.LastHorizon, horizon)
	}
	if st.DroppedRowVersions == 0 {
		t.Fatal("400 commits over 20 keys must leave something to vacuum")
	}
	for seq := horizon; seq <= head; seq++ {
		after := readAll(s, seq)
		if fmt.Sprint(after) != fmt.Sprint(before[seq]) {
			t.Fatalf("read at seq %d changed across vacuum:\n before %v\n after  %v", seq, before[seq], after)
		}
	}
	if got := s.HistoryRetainedFrom(); got != horizon {
		t.Fatalf("HistoryRetainedFrom = %d, want %d", got, horizon)
	}
}

// TestVacuumRemovesTombstonedKeys checks physical removal: a row deleted
// before the horizon disappears from the tree entirely, not just logically.
func TestVacuumRemovesTombstonedKeys(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "dead", 1)
	mutateKV(t, s, "dead", value.Row{value.Text("dead"), value.Int(1)}, nil)
	insertKV(t, s, tbl, "live", 2)
	head := s.CurrentSeq()

	if census := s.VersionCensus(); census.ResidentRowKeys != 2 {
		t.Fatalf("pre-vacuum ResidentRowKeys = %d, want 2", census.ResidentRowKeys)
	}
	st := s.Vacuum(head)
	if st.DroppedRowKeys != 1 {
		t.Fatalf("DroppedRowKeys = %d, want 1 (the tombstoned entry)", st.DroppedRowKeys)
	}
	census := s.VersionCensus()
	if census.ResidentRowKeys != 1 || census.ResidentRowVersions != 1 {
		t.Fatalf("post-vacuum census = %+v, want exactly the live row", census)
	}
	if rows := readAll(s, head); len(rows) != 1 || rows[0] != "live=2" {
		t.Fatalf("post-vacuum read = %v", rows)
	}
}

// TestVacuumClampsToPins: a pinned snapshot caps the effective horizon, and
// the pinned read stays answerable; after unpinning, vacuum proceeds.
func TestVacuumClampsToPins(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "a", 1)
	pin := s.PinSnapshot()
	for i := int64(2); i <= 10; i++ {
		mutateKV(t, s, "a", nil, value.Row{value.Text("a"), value.Int(i)})
	}
	head := s.CurrentSeq()

	st := s.Vacuum(head)
	if st.LastHorizon != pin {
		t.Fatalf("effective horizon = %d, want clamp to pin %d", st.LastHorizon, pin)
	}
	if row, ok := s.Get("kv", schema.EncodeKeyTuple(value.Row{value.Text("a")}), pin); !ok || row[1].AsInt() != 1 {
		t.Fatalf("pinned read after clamped vacuum = %v, %v; want a=1", row, ok)
	}
	s.UnpinSnapshot(pin)
	st = s.Vacuum(head)
	if st.LastHorizon != head {
		t.Fatalf("post-unpin horizon = %d, want %d", st.LastHorizon, head)
	}
	if census := s.VersionCensus(); census.ResidentRowVersions != 1 {
		t.Fatalf("post-unpin census = %+v, want single version", census)
	}
}

// TestVacuumFloorRefusesCloneAt: time travel below the floor fails with the
// typed error instead of returning plausible-but-empty state.
func TestVacuumFloorRefusesCloneAt(t *testing.T) {
	s, tbl := newKVStore(t)
	for i := int64(1); i <= 10; i++ {
		insertKV(t, s, tbl, fmt.Sprintf("k%d", i), i)
	}
	head := s.CurrentSeq()
	s.Vacuum(head - 2)

	if _, err := s.CloneAt(head - 5); !errors.Is(err, ErrHistoryTruncated) {
		t.Fatalf("CloneAt below floor: err = %v, want ErrHistoryTruncated", err)
	}
	if _, err := s.CloneAt(head - 2); err != nil {
		t.Fatalf("CloneAt at floor: %v", err)
	}
	if _, err := s.CloneAt(head); err != nil {
		t.Fatalf("CloneAt at head: %v", err)
	}
}

// TestVacuumHorizonClamps: horizons beyond the head clamp to the head, and a
// second vacuum at or below the floor is a no-op.
func TestVacuumHorizonClamps(t *testing.T) {
	s, tbl := newKVStore(t)
	insertKV(t, s, tbl, "a", 1)
	mutateKV(t, s, "a", nil, value.Row{value.Text("a"), value.Int(2)})
	head := s.CurrentSeq()

	st := s.Vacuum(head + 100)
	if st.LastHorizon != head {
		t.Fatalf("over-head horizon = %d, want clamp to %d", st.LastHorizon, head)
	}
	dropped := st.DroppedRowVersions
	if dropped != 1 {
		t.Fatalf("DroppedRowVersions = %d, want 1", dropped)
	}
	if st = s.Vacuum(head); st.DroppedRowVersions != 0 {
		t.Fatalf("vacuum at floor dropped %d versions, want 0", st.DroppedRowVersions)
	}
	totals := s.VacuumTotals()
	if totals.Runs != 2 || totals.DroppedRowVersions != dropped {
		t.Fatalf("VacuumTotals = %+v", totals)
	}
}

// TestVacuumVsPinnedScanRace runs vacuums concurrently with a pinned
// snapshot scan; meaningful chiefly under -race, but the stability assertion
// holds regardless: the pinned reader's view never changes.
func TestVacuumVsPinnedScanRace(t *testing.T) {
	s, tbl := newKVStore(t)
	for i := 0; i < 50; i++ {
		insertKV(t, s, tbl, fmt.Sprintf("k%02d", i), int64(i))
	}
	pin := s.PinSnapshot()
	want := fmt.Sprint(readAll(s, pin))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("k%02d", i%50)
			mutateKV(t, s, k, nil, value.Row{value.Text(k), value.Int(int64(i + 1000))})
			s.Vacuum(s.CurrentSeq())
		}
	}()
	for i := 0; i < 200; i++ {
		if got := fmt.Sprint(readAll(s, pin)); got != want {
			close(stop)
			wg.Wait()
			t.Fatalf("pinned scan changed under concurrent vacuum (iteration %d):\n want %v\n got  %v", i, want, got)
		}
	}
	close(stop)
	wg.Wait()
	s.UnpinSnapshot(pin)
}

// TestBTreeDelete exercises the non-rebalancing removal path directly,
// including the underfull/empty-node states it deliberately leaves behind.
func TestBTreeDelete(t *testing.T) {
	tr := newBTree[int]()
	if tr.Delete("missing") {
		t.Fatal("delete on empty tree should report absent")
	}
	const n = 3000
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%06d", i)
	}
	for _, i := range rng.Perm(n) {
		tr.Set(keys[i], i)
	}
	// Delete a random two-thirds, verifying membership via a reference map.
	ref := map[string]bool{}
	for _, k := range keys {
		ref[k] = true
	}
	for _, i := range rng.Perm(n)[:2*n/3] {
		if !tr.Delete(keys[i]) {
			t.Fatalf("delete %q reported absent", keys[i])
		}
		if tr.Delete(keys[i]) {
			t.Fatalf("double delete %q reported present", keys[i])
		}
		delete(ref, keys[i])
	}
	if tr.Len() != len(ref) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(ref))
	}
	var want []string
	for k := range ref {
		want = append(want, k)
	}
	sort.Strings(want)
	var got []string
	tr.Ascend(func(k string, v int) bool {
		got = append(got, k)
		return true
	})
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Ascend after deletes: %d keys, want %d", len(got), len(want))
	}
	for k := range ref {
		if _, ok := tr.Get(k); !ok {
			t.Fatalf("surviving key %q unreachable", k)
		}
	}
	// The degraded (unbalanced) tree must still absorb inserts: put the
	// deleted keys back and verify full recovery.
	for _, k := range keys {
		if !ref[k] {
			tr.Set(k, 0)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len after reinsert = %d, want %d", tr.Len(), n)
	}
	count := 0
	prev := ""
	tr.Ascend(func(k string, v int) bool {
		if k <= prev {
			t.Fatalf("out of order after reinsert: %q after %q", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Fatalf("Ascend count after reinsert = %d, want %d", count, n)
	}
}

// TestBTreeDeleteDrain empties trees of varied shapes one key at a time, in
// orders chosen to hit the internal-hit fallbacks (empty predecessor
// subtree, empty successor subtree, both empty).
func TestBTreeDeleteDrain(t *testing.T) {
	for _, n := range []int{1, 2, 31, 32, 63, 64, 100, 1000, 2048} {
		for seed := int64(0); seed < 3; seed++ {
			tr := newBTree[int]()
			rng := rand.New(rand.NewSource(seed))
			for _, i := range rng.Perm(n) {
				tr.Set(fmt.Sprintf("k%05d", i), i)
			}
			order := rng.Perm(n)
			if seed == 0 {
				sort.Ints(order) // ascending drain empties left spines first
			}
			for idx, i := range order {
				if !tr.Delete(fmt.Sprintf("k%05d", i)) {
					t.Fatalf("n=%d seed=%d: delete %d reported absent", n, seed, i)
				}
				if tr.Len() != n-idx-1 {
					t.Fatalf("n=%d seed=%d: Len = %d after %d deletes", n, seed, tr.Len(), idx+1)
				}
			}
			tr.Ascend(func(k string, v int) bool {
				t.Fatalf("n=%d seed=%d: drained tree still yields %q", n, seed, k)
				return false
			})
		}
	}
}
