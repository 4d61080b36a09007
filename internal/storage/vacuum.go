package storage

import (
	"errors"
	"fmt"
	"sort"
)

// ErrHistoryTruncated reports a time-travel access below the store's history
// floor: Vacuum or a checkpointed restart discarded the row versions the
// read would need, so the store refuses loudly instead of returning
// plausible-but-empty results.
var ErrHistoryTruncated = errors.New("storage: history truncated below requested snapshot")

// VacuumStats counts what vacuum removed. Store.Vacuum returns the stats of
// one run (Runs == 1 when anything was examined); Store.VacuumTotals returns
// the accumulated counters since the store was opened.
type VacuumStats struct {
	Runs                 uint64
	LastHorizon          uint64 // effective horizon of the most recent run
	DroppedRowVersions   uint64 // row versions compacted out of chains
	DroppedRowKeys       uint64 // tombstoned row entries removed from trees
	DroppedIndexVersions uint64 // index-posting versions compacted out
	DroppedIndexKeys     uint64 // dead index postings removed from trees
}

// add accumulates o into s.
func (s *VacuumStats) add(o VacuumStats) {
	s.Runs += o.Runs
	s.LastHorizon = o.LastHorizon
	s.DroppedRowVersions += o.DroppedRowVersions
	s.DroppedRowKeys += o.DroppedRowKeys
	s.DroppedIndexVersions += o.DroppedIndexVersions
	s.DroppedIndexKeys += o.DroppedIndexKeys
}

// VersionStats is a point-in-time census of MVCC residency, computed in one
// O(total versions) pass for operator stats and the mvcc experiment's
// plateau check.
type VersionStats struct {
	ResidentRowVersions   uint64 // row versions resident across all chains
	ResidentRowKeys       uint64 // distinct row entries (live or tombstoned)
	MaxChainLength        uint64 // longest row version chain
	ResidentIndexVersions uint64 // index-posting versions resident
}

// Vacuum garbage-collects MVCC history older than horizon: every row and
// index-posting version chain is compacted to the version visible at the
// horizon (when still live) plus everything newer, and entries whose whole
// chain is dead at the horizon — rows deleted before it — are physically
// removed from the B-trees. The effective horizon is clamped to the oldest
// pinned snapshot, so a long-running read-only scan keeps every version it
// can see; correctness never depends on the caller choosing a safe horizon.
//
// Reads at or after the effective horizon observe exactly what they did
// before the vacuum. Reads below it are no longer answerable, so the history
// floor (HistoryRetainedFrom) rises to the horizon, and the change log is
// cut there too: commits up to the horizon go, DDL positioned at it stays.
func (s *Store) Vacuum(horizon uint64) VacuumStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if oldest, pinned := s.oldestPinLocked(); pinned && oldest < horizon {
		horizon = oldest
	}
	if horizon > s.seq {
		horizon = s.seq
	}
	st := VacuumStats{Runs: 1, LastHorizon: horizon}
	if horizon > 0 && horizon > s.historyFloor {
		// Tables in sorted order: counters are order-independent, but tree
		// mutation order stays deterministic for debugging and replay.
		tkeys := make([]string, 0, len(s.data))
		for tkey := range s.data {
			tkeys = append(tkeys, tkey)
		}
		sort.Strings(tkeys)
		for _, tkey := range tkeys {
			s.vacuumTable(s.data[tkey], horizon, &st)
		}
		s.historyFloor = horizon
		s.cutLog(horizon)
	}
	s.vac.add(st)
	return st
}

// vacuumTable compacts one table's row tree and index trees. Called under
// s.mu.
func (s *Store) vacuumTable(td *tableData, horizon uint64, st *VacuumStats) {
	var dead []string
	td.rows.Ascend(func(k string, e *entry) bool {
		kept, dropped := compactRowChain(e.versions, horizon)
		st.DroppedRowVersions += dropped
		if len(kept) == 0 {
			dead = append(dead, k)
		} else if dropped > 0 {
			e.versions = kept
		}
		return true
	})
	for _, k := range dead {
		td.rows.Delete(k)
		st.DroppedRowKeys++
	}
	inames := make([]string, 0, len(td.indexes))
	for iname := range td.indexes {
		inames = append(inames, iname)
	}
	sort.Strings(inames)
	for _, iname := range inames {
		tree := td.indexes[iname]
		dead = dead[:0]
		tree.Ascend(func(k string, e *indexEntry) bool {
			kept, dropped := compactIndexChain(e.versions, horizon)
			st.DroppedIndexVersions += dropped
			if len(kept) == 0 {
				dead = append(dead, k)
			} else if dropped > 0 {
				e.versions = kept
			}
			return true
		})
		for _, k := range dead {
			tree.Delete(k)
			st.DroppedIndexKeys++
		}
	}
}

// compactRowChain reduces a version chain to the version visible at the
// horizon (if it is a live row — a visible tombstone is equivalent to no
// version at all, since both read as "row absent") plus every newer version.
// It returns the surviving chain and the number of versions dropped; when
// nothing is dropped it returns the input slice unchanged. The surviving
// chain is reallocated so dropped row images do not stay reachable through
// the old backing array.
func compactRowChain(vs []version, horizon uint64) ([]version, uint64) {
	j := sort.Search(len(vs), func(i int) bool { return vs[i].seq > horizon })
	keep := j
	if j > 0 && vs[j-1].row != nil {
		keep = j - 1
	}
	if keep == 0 {
		return vs, 0
	}
	return append([]version(nil), vs[keep:]...), uint64(keep)
}

// compactIndexChain is compactRowChain for index postings: an absent posting
// visible at the horizon reads the same as no posting, so only a present one
// is retained.
func compactIndexChain(vs []indexVersion, horizon uint64) ([]indexVersion, uint64) {
	j := sort.Search(len(vs), func(i int) bool { return vs[i].seq > horizon })
	keep := j
	if j > 0 && vs[j-1].row != nil {
		keep = j - 1
	}
	if keep == 0 {
		return vs, 0
	}
	return append([]indexVersion(nil), vs[keep:]...), uint64(keep)
}

// VacuumTotals returns the accumulated vacuum counters.
func (s *Store) VacuumTotals() VacuumStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vac
}

// VersionCensus walks every chain and reports MVCC residency.
func (s *Store) VersionCensus() VersionStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var st VersionStats
	for _, td := range s.data {
		td.rows.Ascend(func(_ string, e *entry) bool {
			n := uint64(len(e.versions))
			st.ResidentRowKeys++
			st.ResidentRowVersions += n
			if n > st.MaxChainLength {
				st.MaxChainLength = n
			}
			return true
		})
		for _, tree := range td.indexes {
			tree.Ascend(func(_ string, e *indexEntry) bool {
				st.ResidentIndexVersions += uint64(len(e.versions))
				return true
			})
		}
	}
	return st
}

// historyTruncatedf builds the standard below-floor error.
func historyTruncatedf(requested, floor uint64) error {
	return fmt.Errorf("%w: requested snapshot %d, history retained from %d", ErrHistoryTruncated, requested, floor)
}
