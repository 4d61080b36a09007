package crashtest

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/db"
	"repro/internal/wal"
)

// sqlOp is one acknowledged statement, replayed on the oracle.
type sqlOp struct {
	sql  string
	args []any
}

// TestDifferentialRecoveryConcurrentCheckpoints runs concurrent writers and a
// DDL session against a disk database whose thresholds are small enough that
// background checkpoints, and the vacuum each one runs, overlap the traffic.
// Each round ends with Close, which lands while the last signalled checkpoint
// is usually still running, and a reopen. After every reopen the recovered
// store must equal an in-memory oracle that replays every acknowledged
// statement. Writers own disjoint keys and the DDL session touches only its
// own tables and indexes, so each log replays in its own order.
func TestDifferentialRecoveryConcurrentCheckpoints(t *testing.T) {
	const (
		writers = 2
		keys    = 48
		rounds  = 4
	)
	for _, seed := range []int64{3, 11, 29} {
		rng := rand.New(rand.NewSource(seed))
		path := filepath.Join(t.TempDir(), "prod.wal")
		open := func() *db.DB {
			d, err := db.Open(db.Options{Mode: db.Disk, Path: path, Sync: wal.SyncEachCommit,
				CheckpointRecords: 16, HistoryRetention: 8})
			if err != nil {
				t.Fatalf("seed %d: open: %v", seed, err)
			}
			return d
		}
		disk, oracle := open(), db.MustOpenMemory()
		setup := []sqlOp{
			{sql: `CREATE TABLE kv (k INTEGER PRIMARY KEY, v INTEGER, w TEXT)`},
			{sql: `CREATE INDEX kv_v ON kv (v)`},
		}
		for _, op := range setup {
			for _, d := range []*db.DB{disk, oracle} {
				if _, err := d.Exec(op.sql); err != nil {
					t.Fatal(err)
				}
			}
		}
		present := make([]map[int]bool, writers)
		for w := range present {
			present[w] = map[int]bool{}
		}
		snapshots, vacuums := 0, 0
		for round := 0; round < rounds; round++ {
			logs := make([][]sqlOp, writers+1)
			counts := make([]int, writers)
			for w := range counts {
				counts[w] = 20 + rng.Intn(60)
			}
			var wg sync.WaitGroup
			errs := make(chan error, writers+1)
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int, rng *rand.Rand) {
					defer wg.Done()
					for i := 0; i < counts[w]; i++ {
						k := w + writers*rng.Intn(keys/writers)
						var op sqlOp
						switch {
						case !present[w][k]:
							op = sqlOp{`INSERT INTO kv VALUES (?, ?, ?)`, []any{k, rng.Intn(10), fmt.Sprintf("w%d", w)}}
						case rng.Intn(4) == 0:
							op = sqlOp{`DELETE FROM kv WHERE k = ?`, []any{k}}
						case rng.Intn(3) == 0:
							op = sqlOp{`UPDATE kv SET w = NULL WHERE k = ?`, []any{k}}
						default:
							op = sqlOp{`UPDATE kv SET v = v + ? WHERE k = ?`, []any{rng.Intn(5), k}}
						}
						if _, err := disk.Exec(op.sql, op.args...); err != nil {
							errs <- fmt.Errorf("writer %d: %s: %w", w, op.sql, err)
							return
						}
						present[w][k] = op.sql[0] != 'D'
						logs[w] = append(logs[w], op)
					}
				}(w, rand.New(rand.NewSource(rng.Int63())))
			}
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				tbl := fmt.Sprintf("d%d", round)
				ddl := []sqlOp{
					{sql: fmt.Sprintf(`CREATE TABLE %s (id INTEGER PRIMARY KEY, note TEXT)`, tbl)},
					{sql: fmt.Sprintf(`INSERT INTO %s VALUES (?, ?)`, tbl), args: []any{round, "ddl"}},
					{sql: fmt.Sprintf(`CREATE INDEX kv_w%d ON kv (w)`, round)},
					{sql: fmt.Sprintf(`CREATE UNIQUE INDEX %s_note ON %s (note)`, tbl, tbl)},
				}
				if round > 0 && rng.Intn(2) == 0 {
					ddl = append(ddl, sqlOp{sql: fmt.Sprintf(`DROP TABLE d%d`, round-1)})
				}
				for _, op := range ddl {
					if _, err := disk.Exec(op.sql, op.args...); err != nil {
						errs <- fmt.Errorf("ddl: %s: %w", op.sql, err)
						return
					}
					logs[writers] = append(logs[writers], op)
				}
			}(rand.New(rand.NewSource(rng.Int63())))
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatalf("seed %d round %d: %v", seed, round, err)
			}
			for _, log := range logs {
				for _, op := range log {
					if _, err := oracle.Exec(op.sql, op.args...); err != nil {
						t.Fatalf("seed %d round %d: oracle: %s: %v", seed, round, op.sql, err)
					}
				}
			}
			if err := disk.Close(); err != nil {
				t.Fatalf("seed %d round %d: close: %v", seed, round, err)
			}
			if disk.Store().VacuumTotals().Runs > 0 {
				vacuums++
			}
			disk = open()
			if disk.Recovery().SnapshotLoaded {
				snapshots++
			}
			if diff := StoreDiff(disk.Store(), oracle.Store()); diff != "" {
				t.Fatalf("seed %d round %d: recovered state diverges from the acknowledged commits: %s", seed, round, diff)
			}
		}
		disk.Close()
		oracle.Close()
		if snapshots == 0 || vacuums == 0 {
			t.Fatalf("seed %d: %d of %d reopens loaded a snapshot and %d rounds vacuumed; the checkpointer never ran",
				seed, snapshots, rounds, vacuums)
		}
	}
}
