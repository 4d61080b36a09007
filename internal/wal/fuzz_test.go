package wal

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/storage"
	"repro/internal/value"
)

// FuzzDecodeCommit: DecodeCommit, which decodes every WAL commit record and
// every replicated commit, never panics on arbitrary bytes, and a record it
// accepts re-encodes to exactly the bytes it was decoded from.
//
//	go test -run '^$' -fuzz '^FuzzDecodeCommit$' -fuzztime 20s ./internal/wal
func FuzzDecodeCommit(f *testing.F) {
	big := value.Row{value.Int(1), value.Text(strings.Repeat("v", 20_000)), value.Bytes(bytes.Repeat([]byte{0, 0xff}, 300))}
	seeds := []storage.CommitRecord{
		sampleCommit(7),    // an insert, an update and a delete
		{Seq: 1, TxnID: 1}, // an empty change set
		{Seq: 1 << 62, TxnID: 3, Changes: []storage.Change{
			{Table: "docs", Key: "\x00k", Op: storage.OpInsert, After: big},
			{Table: "docs", Key: "\x00j", Op: storage.OpUpdate, Before: big, After: value.Row{value.Null, value.Float(-0.5), value.Bool(true)}},
		}},
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 8; i++ {
		seeds = append(seeds, randomCommit(rng))
	}
	for _, rec := range seeds {
		f.Add(EncodeCommit(nil, rec))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeCommit(data)
		if err != nil {
			return
		}
		if enc := EncodeCommit(nil, rec); !bytes.Equal(enc, data) {
			t.Fatalf("accepted record %x re-encodes to %x", data, enc)
		}
	})
}
