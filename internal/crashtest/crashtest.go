// Package crashtest provides deterministic crash injection for the
// durability stack: a file wrapper that cuts a write at an arbitrary byte
// offset and models fsync-aware data loss, plus helpers to compare two
// stores' full committed state. Tests use it to simulate a crash at every
// offset of a workload's WAL and assert that recovery reproduces exactly the
// acknowledged-commit prefix.
package crashtest

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/storage"
	"repro/internal/value"
)

// ErrInjected is returned by every operation at and after the injected
// crash point.
var ErrInjected = errors.New("crashtest: injected crash")

// File wraps an on-disk file and injects a crash at a fixed byte offset:
// the write that reaches the offset is cut short (a torn write) and every
// later operation fails. Sync tracks the durable watermark, so a test can
// materialise the post-crash image two ways: the pessimistic one (only
// fsynced bytes survive — what a power failure guarantees) or the
// optimistic one (the OS page cache happened to keep the unsynced tail).
//
// File satisfies wal.File, so a wal.Log can run directly over it.
type File struct {
	mu      sync.Mutex
	f       *os.File
	cut     int64 // byte offset at which writing fails; <0 = never
	written int64
	synced  int64
	crashed bool
}

// Create opens (truncating) the file at path with a crash injected at byte
// offset cutAt; cutAt < 0 disables the fault.
func Create(path string, cutAt int64) (*File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	return &File{f: f, cut: cutAt}, nil
}

// Write appends p, cutting it short at the injected offset. A cut write
// persists its prefix (a torn write) and returns ErrInjected.
func (c *File) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return 0, ErrInjected
	}
	room := len(p)
	if c.cut >= 0 && c.written+int64(len(p)) > c.cut {
		room = int(c.cut - c.written)
		c.crashed = true
	}
	n, err := c.f.Write(p[:room])
	c.written += int64(n)
	if err != nil {
		return n, err
	}
	if c.crashed {
		return n, ErrInjected
	}
	return n, nil
}

// Sync records the durable watermark. After the crash point the fsync never
// completes.
func (c *File) Sync() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed {
		return ErrInjected
	}
	if err := c.f.Sync(); err != nil {
		return err
	}
	c.synced = c.written
	return nil
}

// Close closes the underlying file (allowed even after the crash, so tests
// can clean up).
func (c *File) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.f.Close()
}

// Written returns the bytes accepted before the cut.
func (c *File) Written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.written
}

// Durable returns the fsynced watermark: bytes guaranteed to survive.
func (c *File) Durable() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.synced
}

// Crashed reports whether the injected fault has fired.
func (c *File) Crashed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.crashed
}

// CrashImage returns the file bytes a post-crash recovery would find. With
// keepUnsynced false only the fsynced prefix survives (the power-failure
// guarantee); with true the OS retained everything written, including the
// torn tail.
func (c *File) CrashImage(keepUnsynced bool) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.synced
	if keepUnsynced {
		n = c.written
	}
	buf := make([]byte, n)
	if _, err := c.f.ReadAt(buf, 0); err != nil && n > 0 {
		return nil, fmt.Errorf("crashtest: reading crash image: %w", err)
	}
	return buf, nil
}

// StoreDiff compares the full committed state of two stores — catalog,
// rows, and secondary-index contents at each store's current sequence — and
// returns a human-readable description of the first difference, or "" when
// they match. The differential recovery tests use it to check a recovered
// store against an in-memory oracle.
func StoreDiff(got, want *storage.Store) string {
	gt, wt := got.Tables(), want.Tables()
	if !equalStrings(lower(gt), lower(wt)) {
		return fmt.Sprintf("tables differ: got %v, want %v", gt, wt)
	}
	for _, tbl := range wt {
		gs, ws := got.Table(tbl), want.Table(tbl)
		if gs == nil {
			return fmt.Sprintf("table %q missing", tbl)
		}
		if !equalStrings(gs.ColumnNames(), ws.ColumnNames()) {
			return fmt.Sprintf("table %q columns differ: got %v, want %v", tbl, gs.ColumnNames(), ws.ColumnNames())
		}
		if d := diffRows(got, want, tbl); d != "" {
			return d
		}
		if d := diffIndexes(got, want, tbl); d != "" {
			return d
		}
	}
	return ""
}

func diffRows(got, want *storage.Store, tbl string) string {
	g := dumpRows(got, tbl)
	w := dumpRows(want, tbl)
	if len(g) != len(w) {
		return fmt.Sprintf("table %q row count: got %d, want %d", tbl, len(g), len(w))
	}
	for i := range w {
		if g[i].key != w[i].key {
			return fmt.Sprintf("table %q row %d key: got %x, want %x", tbl, i, g[i].key, w[i].key)
		}
		if !g[i].row.Equal(w[i].row) {
			return fmt.Sprintf("table %q key %x: got %v, want %v", tbl, g[i].key, g[i].row, w[i].row)
		}
	}
	return ""
}

func diffIndexes(got, want *storage.Store, tbl string) string {
	gix, wix := indexNames(got, tbl), indexNames(want, tbl)
	if !equalStrings(gix, wix) {
		return fmt.Sprintf("table %q indexes differ: got %v, want %v", tbl, gix, wix)
	}
	for _, ix := range wix {
		g, gerr := dumpIndex(got, tbl, ix)
		w, werr := dumpIndex(want, tbl, ix)
		if gerr != nil || werr != nil {
			return fmt.Sprintf("index %q on %q: scan errors %v / %v", ix, tbl, gerr, werr)
		}
		if len(g) != len(w) {
			return fmt.Sprintf("index %q on %q posting count: got %d, want %d", ix, tbl, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Sprintf("index %q on %q posting %d: got %x, want %x", ix, tbl, i, g[i], w[i])
			}
		}
	}
	return ""
}

type keyedRow struct {
	key string
	row value.Row
}

func dumpRows(s *storage.Store, tbl string) []keyedRow {
	var out []keyedRow
	s.ScanRange(tbl, "", "", s.CurrentSeq(), storage.Ascending, func(k string, row value.Row) bool {
		out = append(out, keyedRow{key: k, row: row})
		return true
	})
	return out
}

func dumpIndex(s *storage.Store, tbl, ix string) ([]string, error) {
	var out []string
	err := s.IndexScanRange(tbl, ix, "", "", s.CurrentSeq(), func(k, pk string) bool {
		out = append(out, k+"\x00"+pk)
		return true
	})
	return out, err
}

func indexNames(s *storage.Store, tbl string) []string {
	defs := s.Indexes(tbl)
	out := make([]string, len(defs))
	for i, ix := range defs {
		out[i] = strings.ToLower(ix.Name)
	}
	sort.Strings(out)
	return out
}

func lower(in []string) []string {
	out := make([]string, len(in))
	for i, s := range in {
		out[i] = strings.ToLower(s)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
