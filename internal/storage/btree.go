// Package storage implements the MVCC storage engine at the bottom of the
// TROD stack: versioned tables ordered by encoded primary key, versioned
// secondary indexes, snapshot (as-of) reads for time travel, optimistic
// commit validation for strict serializability, and a change-data-capture
// commit log that the TROD tracer and replay engine consume.
package storage

import "slices"

// btree is an in-memory B-tree mapping string keys to values of type V. It
// supports insert/replace, point lookup, ordered range scans, and key
// removal. MVCC deletion is expressed as tombstone versions in the stored
// value; physical removal happens only when Vacuum drops an entry whose
// whole chain fell below the history horizon.
//
// The tree uses preemptive splitting: full nodes are split on the way down,
// so one descent both finds a key and, when it is absent, makes room for it.
type btree[V any] struct {
	root *btreeNode[V]
	size int
	// finger is the rightmost leaf, or nil when not known. Every key at or
	// after its first key belongs in it, so ascending inserts (auto-increment
	// ids, sequence-ordered provenance) and look-ups of recent keys skip the
	// descent. Only mutating calls read or write it: readers that share the
	// tree under a read lock never touch it.
	finger *btreeNode[V]
}

// btreeDegree is the minimum degree; a node holds at most maxKeys keys. A
// full node's key search touches its 63 × 8 B of prefixes (about eight
// cache lines) and follows a string header (about 1 kB for the node) only
// where a prefix ties.
const (
	btreeDegree = 32
	maxKeys     = 2*btreeDegree - 1
)

type btreeNode[V any] struct {
	keys []string
	// pfx[i] is keyPrefix(keys[i]). Search compares these integers and
	// reads a key's bytes only where its prefix equals the sought one's;
	// the slice holds no pointers, so the collector never scans it.
	pfx      []uint64
	vals     []V
	children []*btreeNode[V] // nil for leaves
}

// keyPrefix returns key's first 8 bytes as a big-endian integer, padded
// with zero bytes. Prefixes order as the keys do wherever they differ:
// keyPrefix(a) < keyPrefix(b) implies a < b. Equal prefixes say nothing
// (the keys "a" and "a\x00" share one), so ties fall back to the keys.
func keyPrefix(key string) uint64 {
	if len(key) >= 8 {
		return uint64(key[0])<<56 | uint64(key[1])<<48 | uint64(key[2])<<40 | uint64(key[3])<<32 |
			uint64(key[4])<<24 | uint64(key[5])<<16 | uint64(key[6])<<8 | uint64(key[7])
	}
	var p uint64
	for i := 0; i < len(key); i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

func newBTree[V any]() *btree[V] {
	return &btree[V]{root: &btreeNode[V]{}}
}

// Len returns the number of distinct keys.
func (t *btree[V]) Len() int { return t.size }

func (n *btreeNode[V]) leaf() bool { return n.children == nil }

// search returns the first position in [lo, hi) whose key is at or after
// key, or hi when there is none. It is one binary search ordered by prefix,
// then by the whole key: probes that land in the run of prefixes equal to
// key's compare strings, and every other probe compares two integers.
func (n *btreeNode[V]) search(lo, hi int, key string) int {
	p := keyPrefix(key)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if q := n.pfx[m]; q < p || q == p && n.keys[m] < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// find returns the position of key in n.keys and whether it matched exactly.
func (n *btreeNode[V]) find(key string) (int, bool) {
	i := n.search(0, len(n.keys), key)
	return i, i < len(n.keys) && n.keys[i] == key
}

// Get returns the value stored at key.
func (t *btree[V]) Get(key string) (V, bool) {
	n := t.root
	for {
		i, ok := n.find(key)
		if ok {
			return n.vals[i], true
		}
		if n.leaf() {
			var zero V
			return zero, false
		}
		n = n.children[i]
	}
}

// Set inserts or replaces the value at key, reporting whether the key was
// newly inserted.
func (t *btree[V]) Set(key string, val V) bool {
	p, inserted := t.slot(key)
	*p = val
	return inserted
}

// GetOrSet returns the existing value at key, or stores and returns mk()'s
// result when absent. loaded reports whether the value pre-existed.
func (t *btree[V]) GetOrSet(key string, mk func() V) (v V, loaded bool) {
	p, inserted := t.slot(key)
	if inserted {
		*p = mk()
	}
	return *p, !inserted
}

// slot reaches key in one descent and returns where its value lives,
// inserting the key with a zero value when it is absent. The pointer is
// valid until the tree is next modified.
func (t *btree[V]) slot(key string) (p *V, inserted bool) {
	if f := t.finger; f != nil && len(f.keys) > 0 && key >= f.keys[0] {
		i, ok := f.find(key)
		if ok {
			return &f.vals[i], false
		}
		if len(f.keys) < maxKeys {
			f.insertAt(i, key)
			t.size++
			return &f.vals[i], true
		}
	}
	if len(t.root.keys) == maxKeys {
		t.root = &btreeNode[V]{children: []*btreeNode[V]{t.root}}
		t.splitChild(t.root, 0, btreeDegree-1)
	}
	n, rightmost := t.root, true
	for {
		i, ok := n.find(key)
		if ok {
			return &n.vals[i], false
		}
		if n.leaf() {
			n.insertAt(i, key)
			t.size++
			if rightmost {
				t.finger = n
			}
			return &n.vals[i], true
		}
		if child := n.children[i]; len(child.keys) == maxKeys {
			mid := btreeDegree - 1
			if child.leaf() && key > child.keys[maxKeys-1] {
				// The key extends this leaf's run: an ascending sequence is
				// being appended here. Splitting at the edge leaves the old
				// leaf full and gives the run a leaf of its own to grow
				// into; splitting at the median would leave every leaf the
				// run passes through half empty for good.
				mid = maxKeys - 1
			}
			t.splitChild(n, i, mid)
			// The separator promoted from the child may equal or precede key.
			if key == n.keys[i] {
				return &n.vals[i], false
			}
			if key > n.keys[i] {
				i++
			}
		}
		rightmost = rightmost && i == len(n.keys)
		n = n.children[i]
	}
}

// insertAt opens position i of a leaf for key, with a zero value.
func (n *btreeNode[V]) insertAt(i int, key string) {
	var zero V
	n.keys = slices.Insert(n.keys, i, key)
	n.pfx = slices.Insert(n.pfx, i, keyPrefix(key))
	n.vals = slices.Insert(n.vals, i, zero)
}

// splitChild splits n's full child at index i around its key at mid, which
// is promoted into n. The new right sibling is given room for a full node,
// so it does not regrow on its way there.
func (t *btree[V]) splitChild(n *btreeNode[V], i, mid int) {
	child := n.children[i]
	medianKey, medianPfx, medianVal := child.keys[mid], child.pfx[mid], child.vals[mid]

	right := &btreeNode[V]{
		keys: append(make([]string, 0, maxKeys), child.keys[mid+1:]...),
		pfx:  append(make([]uint64, 0, maxKeys), child.pfx[mid+1:]...),
		vals: append(make([]V, 0, maxKeys), child.vals[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode[V](nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.keys = child.keys[:mid]
	child.pfx = child.pfx[:mid]
	child.vals = child.vals[:mid]
	if child == t.finger {
		t.finger = right
	}

	n.keys = slices.Insert(n.keys, i, medianKey)
	n.pfx = slices.Insert(n.pfx, i, medianPfx)
	n.vals = slices.Insert(n.vals, i, medianVal)
	n.children = slices.Insert(n.children, i+1, right)
}

// Delete removes key, reporting whether it was present. Removal does not
// rebalance: a node may drop below the usual minimum occupancy (or empty out
// entirely), which search, insert, and iteration all tolerate — Vacuum's
// deletions are sparse and later inserts re-split on the way down. The
// balance invariant degrades gracefully instead of buying rotation/merge
// complexity the workload never needs.
func (t *btree[V]) Delete(key string) bool {
	t.finger = nil // removal may empty or unlink the leaf it points at
	if !t.root.remove(key) {
		return false
	}
	for len(t.root.keys) == 0 && !t.root.leaf() {
		t.root = t.root.children[0]
	}
	t.size--
	return true
}

func (n *btreeNode[V]) remove(key string) bool {
	i, ok := n.find(key)
	if ok {
		if n.leaf() {
			n.deleteAt(i)
			return true
		}
		// Internal hit: swap in the in-order predecessor (max of the left
		// subtree) as the new separator, then remove that key from where it
		// lived. Earlier deletions may have emptied the left subtree — fall
		// back to the successor, and when both neighbours are empty the
		// separator goes away along with the (empty) right subtree.
		if pk, pv, found := n.children[i].maxEntry(); found {
			n.keys[i], n.pfx[i], n.vals[i] = pk, keyPrefix(pk), pv
			return n.children[i].remove(pk)
		}
		if sk, sv, found := n.children[i+1].minEntry(); found {
			n.keys[i], n.pfx[i], n.vals[i] = sk, keyPrefix(sk), sv
			return n.children[i+1].remove(sk)
		}
		n.deleteAt(i)
		n.children = append(n.children[:i+1], n.children[i+2:]...)
		return true
	}
	if n.leaf() {
		return false
	}
	return n.children[i].remove(key)
}

// deleteAt removes entry i's key, prefix and value.
func (n *btreeNode[V]) deleteAt(i int) {
	n.keys = append(n.keys[:i], n.keys[i+1:]...)
	n.pfx = append(n.pfx[:i], n.pfx[i+1:]...)
	n.vals = append(n.vals[:i], n.vals[i+1:]...)
}

// maxEntry returns the largest key in the subtree, descending through empty
// unbalanced nodes; found is false when the subtree holds no keys at all.
func (n *btreeNode[V]) maxEntry() (string, V, bool) {
	if n.leaf() {
		if len(n.keys) == 0 {
			var zero V
			return "", zero, false
		}
		return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
	}
	if k, v, ok := n.children[len(n.children)-1].maxEntry(); ok {
		return k, v, true
	}
	if len(n.keys) > 0 {
		return n.keys[len(n.keys)-1], n.vals[len(n.vals)-1], true
	}
	var zero V
	return "", zero, false
}

// minEntry is maxEntry's mirror: the smallest key in the subtree.
func (n *btreeNode[V]) minEntry() (string, V, bool) {
	if n.leaf() {
		if len(n.keys) == 0 {
			var zero V
			return "", zero, false
		}
		return n.keys[0], n.vals[0], true
	}
	if k, v, ok := n.children[0].minEntry(); ok {
		return k, v, true
	}
	if len(n.keys) > 0 {
		return n.keys[0], n.vals[0], true
	}
	var zero V
	return "", zero, false
}

// splitKeys returns at most n-1 keys, in order, that cut the tree into up to
// n key ranges of about equal size. They come from the shallowest level
// holding at least n-1 keys, or from the leaves when no level does: one
// level's keys read left to right are sorted, and the subtrees between them
// are about the same size.
func (t *btree[V]) splitKeys(n int) []string {
	level := []*btreeNode[V]{t.root}
	for {
		count := 0
		leaves := false
		for _, nd := range level {
			count += len(nd.keys)
			leaves = leaves || nd.leaf()
		}
		if count >= n-1 || leaves {
			keys := make([]string, 0, count)
			for _, nd := range level {
				keys = append(keys, nd.keys...)
			}
			if len(keys) <= n-1 {
				return keys
			}
			out := make([]string, n-1)
			for j := range out {
				out[j] = keys[(j+1)*len(keys)/n]
			}
			return out
		}
		var next []*btreeNode[V]
		for _, nd := range level {
			next = append(next, nd.children...)
		}
		level = next
	}
}

// Ascend visits all keys in order.
func (t *btree[V]) Ascend(fn func(key string, val V) bool) bool {
	return t.root.ascend("", "", fn)
}

// Range visits keys in [lo, hi) in dir's order; hi == "" means unbounded.
// The callback returns false to stop early. Range reports whether the walk
// ran to completion.
func (t *btree[V]) Range(lo, hi string, dir Direction, fn func(key string, val V) bool) bool {
	if dir == Descending {
		return t.root.descend(lo, hi, fn)
	}
	return t.root.ascend(lo, hi, fn)
}

// ascend visits the keys in [lo, hi) in order. It places both bounds once
// per node: the keys between them are visited without a compare, and a
// child between two of them holds only keys inside the range, so it is
// walked unbounded.
func (n *btreeNode[V]) ascend(lo, hi string, fn func(string, V) bool) bool {
	start, end := 0, len(n.keys)
	if lo != "" {
		start = n.search(0, end, lo)
	}
	if hi != "" {
		end = n.search(start, end, hi)
	}
	for i := start; i < end; i++ {
		if !n.leaf() && !n.children[i].ascend(lo, "", fn) {
			return false
		}
		lo = "" // every later key and child lies above lo
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
	}
	if !n.leaf() {
		return n.children[end].ascend(lo, hi, fn)
	}
	return true
}

// descend is ascend's mirror: keys in [lo, hi) from the largest down.
func (n *btreeNode[V]) descend(lo, hi string, fn func(string, V) bool) bool {
	start, end := 0, len(n.keys)
	if hi != "" {
		end = n.search(0, end, hi)
	}
	if lo != "" {
		start = n.search(0, end, lo)
	}
	if !n.leaf() {
		clo := ""
		if end == start {
			clo = lo
		}
		if !n.children[end].descend(clo, hi, fn) {
			return false
		}
	}
	for i := end - 1; i >= start; i-- {
		if !fn(n.keys[i], n.vals[i]) {
			return false
		}
		if !n.leaf() {
			clo := ""
			if i == start {
				clo = lo
			}
			if !n.children[i].descend(clo, "", fn) {
				return false
			}
		}
	}
	return true
}
