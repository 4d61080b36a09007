package storage

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/schema"
	"repro/internal/value"
)

var benchSink int

// BenchmarkBTreeGet looks up random stored keys in a 100,000-key tree. The
// INTEGER keys are primary keys of an INTEGER column, distinct within their
// first 8 bytes; the TEXT keys are 'user%d', which share a tag byte and
// "user" and so tie on their prefixes far more often.
func BenchmarkBTreeGet(b *testing.B) {
	const n = 100_000
	kinds := []struct {
		name string
		key  func(i int) value.Value
	}{
		{"INTEGER", func(i int) value.Value { return value.Int(int64(i)) }},
		{"TEXT", func(i int) value.Value { return value.Text(fmt.Sprintf("user%d", i)) }},
	}
	for _, kind := range kinds {
		b.Run(kind.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			tr := newBTree[int]()
			keys := make([]string, n)
			for _, i := range rng.Perm(n) {
				keys[i] = string(value.EncodeKey(nil, kind.key(i)))
				tr.Set(keys[i], i)
			}
			probes := rng.Perm(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v, _ := tr.Get(keys[probes[i%n]])
				benchSink += v
			}
		})
	}
}

// BenchmarkIndexScanRows reads one user's five newest posts through a
// non-unique index on posts(userId), 100 posts per user over 1,000 users:
// a descending index walk that stops after five rows, as a timeline read
// with ORDER BY … DESC LIMIT 5 does.
func BenchmarkIndexScanRows(b *testing.B) {
	const users, perUser = 1000, 100
	s := NewStore()
	tbl, err := schema.NewTable("posts", []schema.Column{
		{Name: "postId", Type: value.KindInt},
		{Name: "userId", Type: value.KindInt},
	}, []string{"postId"})
	if err != nil {
		b.Fatal(err)
	}
	if err := s.CreateTable(tbl, false, nil); err != nil {
		b.Fatal(err)
	}
	ix := &schema.Index{Name: "posts_by_user", Table: "posts", Columns: []int{1}}
	if err := s.CreateIndex(ix, nil); err != nil {
		b.Fatal(err)
	}
	changes := make([]Change, 0, users*perUser)
	for id := 0; id < users*perUser; id++ {
		row := value.Row{value.Int(int64(id)), value.Int(int64(id % users))}
		changes = append(changes, Change{Table: "posts", Key: tbl.EncodePrimaryKey(row), Op: OpInsert, After: row})
	}
	if _, err := s.Commit(CommitRequest{Changes: changes}, nil); err != nil {
		b.Fatal(err)
	}
	bounds := make([][2]string, users)
	for u := range bounds {
		bounds[u] = [2]string{
			ix.EncodeIndexPrefix(value.Row{value.Int(int64(u))}),
			ix.EncodeIndexPrefix(value.Row{value.Int(int64(u + 1))}),
		}
	}
	seq := s.CurrentSeq()
	probes := rand.New(rand.NewSource(1)).Perm(users)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd := bounds[probes[i%users]]
		n := 0
		if err := s.IndexScanRows("posts", "posts_by_user", bd[0], bd[1], seq, Descending, func(_, _ string, row value.Row) bool {
			n++
			return n < 5
		}); err != nil {
			b.Fatal(err)
		}
		benchSink += n
	}
}
