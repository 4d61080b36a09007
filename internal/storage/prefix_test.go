package storage

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
)

// prefixKey draws keys that make 8-byte prefixes tie: many keys behind one
// shared 8-byte prefix, keys shorter than 8 bytes, keys that differ only by
// trailing zero bytes, and short random keys over an alphabet that holds
// the smallest and largest byte.
func prefixKey(rng *rand.Rand) string {
	const alphabet = "\x00\x01a\xff"
	random := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	switch rng.Intn(4) {
	case 0: // one run of equal prefixes
		return "posting\x01" + random(rng.Intn(4))
	case 1: // shorter than a prefix
		return random(1 + rng.Intn(7))
	case 2: // "a", "a\x00", "a\x00\x00", …: equal prefixes, different keys
		bases := []string{"a", "a\x01", "abcdefg", "abcdefgh"}
		return bases[rng.Intn(len(bases))] + strings.Repeat("\x00", rng.Intn(10))
	default:
		return random(rng.Intn(13))
	}
}

// checkPrefixes walks every node and asserts that pfx holds the prefix of
// each of its keys.
func checkPrefixes[V any](t *testing.T, n *btreeNode[V]) {
	t.Helper()
	if len(n.pfx) != len(n.keys) {
		t.Fatalf("node holds %d keys and %d prefixes", len(n.keys), len(n.pfx))
	}
	for i, k := range n.keys {
		if n.pfx[i] != keyPrefix(k) {
			t.Fatalf("key %q carries prefix %#x, want %#x", k, n.pfx[i], keyPrefix(k))
		}
	}
	for _, c := range n.children {
		checkPrefixes(t, c)
	}
}

func TestKeyPrefixOrdersAsKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20000; i++ {
		a, b := prefixKey(rng), prefixKey(rng)
		pa, pb := keyPrefix(a), keyPrefix(b)
		if pa < pb && a >= b || pa > pb && a <= b {
			t.Fatalf("prefixes %#x, %#x order %q, %q the wrong way", pa, pb, a, b)
		}
	}
	if keyPrefix("a") != keyPrefix("a\x00") || keyPrefix("") != 0 || keyPrefix("\x01\x02\x03\x04\x05\x06\x07\x08\x09") != 0x0102030405060708 {
		t.Fatal("keyPrefix is not the zero-padded big-endian first 8 bytes")
	}
}

// TestBTreePrefixSearchAgainstSortedReference drives Set, Get, Delete and
// Range in both directions, over keys whose prefixes tie, against a sorted
// slice. Deletes come singly and in drained runs: a drained run empties
// whole subtrees, so remove swaps in predecessors and successors and drops
// separators whose neighbours are empty, not only leaf entries. After every
// round, every node's prefixes must match its keys.
func TestBTreePrefixSearchAgainstSortedReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := newBTree[string]()
		var ref []string // sorted; a key's value is the key itself
		has := func(k string) (int, bool) { return slices.BinarySearch(ref, k) }
		for round := 0; round < 40; round++ {
			for op := 0; op < 300; op++ {
				k := prefixKey(rng)
				if rng.Intn(10) < 7 {
					i, found := has(k)
					if inserted := tr.Set(k, k); inserted == found {
						t.Fatalf("seed %d: Set(%q) inserted=%v, reference has it: %v", seed, k, inserted, found)
					}
					if !found {
						ref = slices.Insert(ref, i, k)
					}
					continue
				}
				if len(ref) > 0 && rng.Intn(2) == 0 {
					k = ref[rng.Intn(len(ref))]
				}
				i, found := has(k)
				if tr.Delete(k) != found {
					t.Fatalf("seed %d: Delete(%q) disagrees with the reference (has it: %v)", seed, k, found)
				}
				if found {
					ref = slices.Delete(ref, i, i+1)
				}
			}
			if rng.Intn(2) == 0 { // drain a run of neighbours
				i, _ := has(prefixKey(rng))
				j := min(len(ref), i+rng.Intn(300))
				for _, d := range ref[i:j] {
					if !tr.Delete(d) {
						t.Fatalf("seed %d: Delete(%q) missed a stored key", seed, d)
					}
				}
				ref = slices.Delete(ref, i, j)
			}
			checkPrefixes(t, tr.root)
			if tr.Len() != len(ref) {
				t.Fatalf("seed %d: Len = %d, reference holds %d", seed, tr.Len(), len(ref))
			}
			for q := 0; q < 40; q++ {
				k := prefixKey(rng)
				if q%2 == 0 && len(ref) > 0 {
					k = ref[rng.Intn(len(ref))]
				}
				v, ok := tr.Get(k)
				if _, found := has(k); ok != found || ok && v != k {
					t.Fatalf("seed %d: Get(%q) = %q, %v; reference has it: %v", seed, k, v, ok, found)
				}
				lo, hi := "", ""
				if rng.Intn(4) > 0 {
					lo = prefixKey(rng)
				}
				if rng.Intn(4) > 0 {
					hi = prefixKey(rng)
				}
				from, _ := has(lo)
				to := len(ref)
				if hi != "" {
					to, _ = has(hi)
				}
				want := []string{}
				if from < to {
					want = slices.Clone(ref[from:to])
				}
				for _, dir := range []Direction{Ascending, Descending} {
					got := []string{}
					tr.Range(lo, hi, dir, func(k, v string) bool {
						if k != v {
							t.Fatalf("seed %d: key %q holds %q", seed, k, v)
						}
						got = append(got, k)
						return true
					})
					if dir == Descending {
						slices.Reverse(got)
					}
					if !slices.Equal(got, want) {
						t.Fatalf("seed %d: Range(%q, %q, %d) = %q, want %q", seed, lo, hi, dir, got, want)
					}
				}
			}
		}
		var all []string
		tr.Ascend(func(k, _ string) bool {
			all = append(all, k)
			return true
		})
		if !slices.Equal(all, ref) || !sort.StringsAreSorted(all) {
			t.Fatalf("seed %d: Ascend disagrees with the reference", seed)
		}
	}
}
