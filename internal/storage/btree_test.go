package storage

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeSetGet(t *testing.T) {
	tr := newBTree[int]()
	if _, ok := tr.Get("missing"); ok {
		t.Error("empty tree Get should miss")
	}
	if !tr.Set("a", 1) {
		t.Error("first Set should report insert")
	}
	if tr.Set("a", 2) {
		t.Error("second Set should report replace")
	}
	if v, ok := tr.Get("a"); !ok || v != 2 {
		t.Errorf("Get(a) = %d, %v", v, ok)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d", tr.Len())
	}
}

func TestBTreeGetOrSet(t *testing.T) {
	tr := newBTree[*int]()
	calls := 0
	mk := func() *int { calls++; v := 7; return &v }
	p1, loaded := tr.GetOrSet("k", mk)
	if loaded || *p1 != 7 || calls != 1 {
		t.Error("first GetOrSet should create")
	}
	p2, loaded := tr.GetOrSet("k", mk)
	if !loaded || p1 != p2 || calls != 1 {
		t.Error("second GetOrSet should load existing")
	}
}

func TestBTreeManyKeysOrdered(t *testing.T) {
	tr := newBTree[int]()
	const n = 5000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, i := range perm {
		tr.Set(fmt.Sprintf("key%06d", i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	prev := ""
	count := 0
	tr.Ascend(func(k string, v int) bool {
		if k <= prev {
			t.Fatalf("out of order: %q after %q", k, prev)
		}
		prev = k
		count++
		return true
	})
	if count != n {
		t.Errorf("Ascend visited %d, want %d", count, n)
	}
	// Spot-check lookups after splits.
	for i := 0; i < n; i += 97 {
		if v, ok := tr.Get(fmt.Sprintf("key%06d", i)); !ok || v != i {
			t.Errorf("Get(key%06d) = %d, %v", i, v, ok)
		}
	}
}

func TestBTreeRangeScan(t *testing.T) {
	tr := newBTree[int]()
	for i := 0; i < 100; i++ {
		tr.Set(fmt.Sprintf("%03d", i), i)
	}
	var got []int
	tr.Range("010", "015", Ascending, func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if fmt.Sprint(got) != "[10 11 12 13 14]" {
		t.Errorf("range scan = %v", got)
	}
	// Unbounded hi.
	got = nil
	tr.Range("097", "", Ascending, func(k string, v int) bool {
		got = append(got, v)
		return true
	})
	if fmt.Sprint(got) != "[97 98 99]" {
		t.Errorf("open range scan = %v", got)
	}
	// Early stop.
	got = nil
	tr.Range("", "", Ascending, func(k string, v int) bool {
		got = append(got, v)
		return len(got) < 3
	})
	if len(got) != 3 {
		t.Errorf("early stop visited %d", len(got))
	}
}

func TestBTreeReplaceAtSeparator(t *testing.T) {
	// Force enough inserts that separators are promoted, then replace keys
	// that live in interior nodes.
	tr := newBTree[int]()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%05d", i), i)
	}
	for i := 0; i < n; i++ {
		if tr.Set(fmt.Sprintf("%05d", i), i*2) {
			t.Fatalf("replace of %05d reported insert", i)
		}
	}
	if tr.Len() != n {
		t.Errorf("Len = %d after replaces", tr.Len())
	}
	for i := 0; i < n; i += 131 {
		if v, _ := tr.Get(fmt.Sprintf("%05d", i)); v != i*2 {
			t.Errorf("Get(%05d) = %d, want %d", i, v, i*2)
		}
	}
}

// Property: tree contents match a reference map and iteration matches sorted
// key order.
func TestBTreePropertyAgainstMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := newBTree[int]()
		ref := map[string]int{}
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("%04d", rng.Intn(300)) // collisions force replaces
			v := rng.Int()
			tr.Set(k, v)
			ref[k] = v
		}
		if tr.Len() != len(ref) {
			return false
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		i := 0
		ok := true
		tr.Ascend(func(k string, v int) bool {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				ok = false
				return false
			}
			i++
			return true
		})
		return ok && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestBTreeSingleDescentAgainstSortedMap drives GetOrSet — the one-descent
// upsert the commit path uses, with its right-edge finger and edge splits —
// against a sorted-map oracle. Ascending and descending runs, random keys
// and re-inserted duplicates are interleaved with Delete, which drops the
// finger. A finger left on a leaf that a split made second-to-last files
// keys in the wrong leaf, which shows up here as a key found twice.
func TestBTreeSingleDescentAgainstSortedMap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newBTree[*int]()
		ref := map[string]*int{}
		hi, lo := 500_000, 500_000 // next ascending / descending key
		key := func(i int) string { return fmt.Sprintf("%07d", i) }
		upsert := func(k string) {
			fresh := new(int)
			got, loaded := tr.GetOrSet(k, func() *int { return fresh })
			want, had := ref[k]
			if loaded != had {
				t.Fatalf("seed %d: GetOrSet(%s) loaded=%v, oracle has it: %v", seed, k, loaded, had)
			}
			if had && got != want {
				t.Fatalf("seed %d: GetOrSet(%s) returned another key's value", seed, k)
			}
			if !had {
				if got != fresh {
					t.Fatalf("seed %d: GetOrSet(%s) did not store the made value", seed, k)
				}
				ref[k] = fresh
			}
		}
		for step := 0; step < 6000; step++ {
			switch op := rng.Intn(100); {
			case op < 45: // ascending run: the finger's case
				hi++
				upsert(key(hi))
			case op < 60: // descending run
				lo--
				upsert(key(lo))
			case op < 75: // anywhere, often a duplicate
				upsert(key(lo + rng.Intn(hi-lo+1)))
			case op < 85: // the newest keys again: finger look-ups
				upsert(key(hi - rng.Intn(3)))
			default: // vacuum: remove a key, often the largest
				k := key(lo + rng.Intn(hi-lo+1))
				if rng.Intn(3) == 0 && hi > lo {
					k = key(hi)
					hi--
				}
				_, had := ref[k]
				if tr.Delete(k) != had {
					t.Fatalf("seed %d: Delete(%s) = %v, oracle has it: %v", seed, k, !had, had)
				}
				delete(ref, k)
			}
		}
		keys := make([]string, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if tr.Len() != len(keys) {
			t.Fatalf("seed %d: Len = %d, oracle holds %d", seed, tr.Len(), len(keys))
		}
		i := 0
		tr.Ascend(func(k string, v *int) bool {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				t.Fatalf("seed %d: position %d holds %s, oracle says %s", seed, i, k, keys[min(i, len(keys)-1)])
			}
			i++
			return true
		})
		if i != len(keys) {
			t.Fatalf("seed %d: Ascend visited %d keys, oracle holds %d", seed, i, len(keys))
		}
		for _, k := range keys {
			if v, ok := tr.Get(k); !ok || v != ref[k] {
				t.Fatalf("seed %d: Get(%s) = %v, %v", seed, k, v, ok)
			}
		}
	}
}

// TestBTreeAscendingRunFillsLeaves: keys appended in ascending order must
// leave the leaves they pass through full, not half empty.
func TestBTreeAscendingRunFillsLeaves(t *testing.T) {
	tr := newBTree[int]()
	const n = 20000
	for i := 0; i < n; i++ {
		tr.Set(fmt.Sprintf("%06d", i), i)
	}
	leaves := 0
	var walk func(nd *btreeNode[int])
	walk = func(nd *btreeNode[int]) {
		if nd.leaf() {
			leaves++
			return
		}
		for _, c := range nd.children {
			walk(c)
		}
	}
	walk(tr.root)
	if fill := float64(n) / float64(leaves*maxKeys); fill < 0.9 {
		t.Errorf("an ascending run left leaves %.0f%% full (%d leaves for %d keys)", 100*fill, leaves, n)
	}
}
