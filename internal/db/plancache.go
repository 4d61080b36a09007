package db

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/span"
	"repro/internal/sqlexec"
	"repro/internal/sqlparse"
)

// planCache caches parsed statements together with their compiled physical
// plans in ONE capped map keyed by query text (previously two parallel
// caches with separate caps and reset paths). Each entry holds the AST —
// always valid, since parsing is schema-independent — plus the plan and the
// storage schema epoch it was compiled under. A plan lookup whose epoch no
// longer matches is a miss, so any DDL (CREATE TABLE, CREATE INDEX, DROP
// TABLE) invalidates every cached plan lazily and the next execution
// re-plans against the new catalog; the statement half of the entry is
// reused as-is, saving the re-parse.
//
// The cache is size-capped with a wholesale reset on overflow: long-running
// traced applications that generate query text (string-built filters, ad-hoc
// debugging queries) must not grow memory without bound, and a full reset is
// cheaper and simpler than LRU bookkeeping on the per-statement hot path.
type planCache struct {
	mu      sync.RWMutex
	cap     int
	entries map[string]cacheEntry

	hits   atomic.Uint64
	misses atomic.Uint64
	resets atomic.Uint64
}

type cacheEntry struct {
	stmt  sqlparse.Statement
	plan  *sqlexec.Plan // nil until the statement is first compiled
	epoch uint64        // schema epoch the plan was compiled under
}

// defaultPlanCacheCap bounds distinct cached query texts. OLTP workloads use
// a small fixed statement set; anything near this limit is generated text.
const defaultPlanCacheCap = 4096

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[string]cacheEntry)}
}

// stmt returns the cached AST for query. Statement lookups do not count
// toward the plan hit/miss counters: PlanCacheStats reports plan reuse, and
// a statement hit with a stale plan still pays the compile.
func (c *planCache) stmt(query string) (sqlparse.Statement, bool) {
	c.mu.RLock()
	e, ok := c.entries[query]
	c.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.stmt, true
}

// plan returns the cached compiled plan for query when it was compiled at
// epoch.
func (c *planCache) plan(query string, epoch uint64) (*sqlexec.Plan, bool) {
	c.mu.RLock()
	e, ok := c.entries[query]
	c.mu.RUnlock()
	if ok && e.plan != nil && e.epoch == epoch {
		c.hits.Add(1)
		return e.plan, true
	}
	c.misses.Add(1)
	return nil, false
}

// put stores or refreshes the entry for query — the single insert/reset path
// for both halves. A nil plan records the parse alone; a non-nil plan
// refreshes an existing entry in place (epoch invalidation re-plans without
// re-inserting). When a brand-new entry would exceed the capacity the cache
// resets wholesale, which also drops any stale-epoch plans.
func (c *planCache) put(query string, stmt sqlparse.Statement, plan *sqlexec.Plan, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, exists := c.entries[query]; exists {
		if plan == nil {
			return // parse raced a fuller entry; keep the compiled plan
		}
		e.plan = plan
		e.epoch = epoch
		c.entries[query] = e
		return
	}
	if len(c.entries) >= c.cap {
		c.entries = make(map[string]cacheEntry, c.cap/4)
		c.resets.Add(1)
	}
	c.entries[query] = cacheEntry{stmt: stmt, plan: plan, epoch: epoch}
}

func (c *planCache) size() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// PlanCacheStats reports plan-cache effectiveness counters. Hits are
// executions that reused a compiled plan (no re-parse, no re-classification);
// misses include first compilations and epoch invalidations; resets counts
// wholesale evictions triggered by the size cap. Size counts cached query
// texts, including statements cached without a compiled plan (transaction
// control, DDL, script statements).
type PlanCacheStats struct {
	Hits   uint64
	Misses uint64
	Resets uint64
	Size   int
}

// PlanCacheStats returns the database's plan-cache counters.
func (db *DB) PlanCacheStats() PlanCacheStats {
	return PlanCacheStats{
		Hits:   db.plans.hits.Load(),
		Misses: db.plans.misses.Load(),
		Resets: db.plans.resets.Load(),
		Size:   db.plans.size(),
	}
}

// planFor returns the cached physical plan for (query, current schema epoch),
// compiling and caching it on miss. stmt must be the parsed form of query.
// A compile on miss is recorded as a plan_compile span into sp (nil-safe)
// under parent — the signal that separates cache-thrash latency (compile
// dominating) from execution latency in a trace.
func (db *DB) planFor(query string, stmt sqlparse.Statement, sp *span.Buf, parent uint32) (*sqlexec.Plan, error) {
	epoch := db.store.SchemaEpoch()
	if p, ok := db.plans.plan(query, epoch); ok {
		return p, nil
	}
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	p, err := sqlexec.Compile(stmt, db.store)
	if sp != nil {
		sp.Record(span.StagePlanCompile, parent, t0, time.Since(t0))
	}
	if err != nil {
		return nil, err
	}
	db.plans.put(query, stmt, p, epoch)
	return p, nil
}

// isPlannable reports whether a statement kind goes through the plan cache.
func isPlannable(stmt sqlparse.Statement) bool {
	switch stmt.(type) {
	case *sqlparse.Select, *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
		return true
	}
	return false
}
