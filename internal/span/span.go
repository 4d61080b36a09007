// Package span is the request-scoped tracing layer: an allocation-lean span
// recorder producing per-request span trees with stages from every layer of
// the stack (server queue/framing, db planning and execution, WAL append and
// fsync, replication quorum and apply, client pool and RTT).
//
// The package is deliberately leaf-level — stdlib only, imported by protocol
// consumers on both ends of the wire — and the request-path types are built
// for the hot path: a Buf is a fixed-size per-request buffer appended to
// lock-free (one atomic reservation per span, no map, no mutex), and every
// method is nil-safe so the disabled-tracing path is a nil check and nothing
// else. Traces are tail-sampled at request completion by a Collector: error,
// conflict, and over-threshold traces are always kept, the rest
// probabilistically, and kept traces ride to the collector's sink (on a
// server, the trod_spans system table) via a callback.
package span

import (
	"sync/atomic"
	"time"
)

// Stage identifies which layer a span's time was spent in. The wire and the
// trod_spans system table carry the string form; new stages append only.
type Stage uint8

const (
	// StageRequest is the root span: the server-measured request wall time.
	StageRequest Stage = iota
	// StageQueueWait is time spent in the server's admission queue before
	// the session was granted a slot (attributed to the session's first
	// request, where the wait actually happened).
	StageQueueWait
	// StageFrameRead is first request byte to fully-decoded frame.
	StageFrameRead
	// StageFrameWrite is the response frame write.
	StageFrameWrite
	// StageParsePlan is SQL parse plus the plan-cache lookup.
	StageParsePlan
	// StagePlanCompile is plan compilation on a cache miss (child of
	// StageParsePlan; absent on a cache hit).
	StagePlanCompile
	// StageExecute is plan execution against the transaction overlay.
	StageExecute
	// StageOCCValidate is commit-time OCC validation and apply, minus the
	// WAL append it triggers (reported separately).
	StageOCCValidate
	// StageWALAppend is the commit record's WAL append (in-memory frame
	// encode + write under the commit lock).
	StageWALAppend
	// StageGroupCommitWait is time waiting for another committer's fsync to
	// cover this commit (the group-commit follower path).
	StageGroupCommitWait
	// StageWALFsync is time leading an fsync batch (the group-commit leader
	// path; a solo commit is a batch of one).
	StageWALFsync
	// StageQuorumWait is time blocked in the synchronous-replication quorum
	// barrier waiting for replica acks.
	StageQuorumWait
	// StagePoolCheckout is client-side time borrowing (or dialing) a pooled
	// connection.
	StagePoolCheckout
	// StageRTT is the client-observed request/response round trip.
	StageRTT
	// StageReplApply is a replica applying a replicated commit to its store
	// (minus its own WAL append, reported separately).
	StageReplApply
	// StageReplWALAppend is the replica persisting the applied commit to its
	// own WAL.
	StageReplWALAppend

	numStages
)

var stageNames = [numStages]string{
	StageRequest:         "request",
	StageQueueWait:       "queue_wait",
	StageFrameRead:       "frame_read",
	StageFrameWrite:      "frame_write",
	StageParsePlan:       "parse_plan",
	StagePlanCompile:     "plan_compile",
	StageExecute:         "execute",
	StageOCCValidate:     "occ_validate",
	StageWALAppend:       "wal_append",
	StageGroupCommitWait: "group_commit_wait",
	StageWALFsync:        "wal_fsync",
	StageQuorumWait:      "quorum_wait",
	StagePoolCheckout:    "pool_checkout",
	StageRTT:             "rtt",
	StageReplApply:       "repl_apply",
	StageReplWALAppend:   "repl_wal_append",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages lists every stage name (metric label pre-registration order).
func Stages() []string {
	out := make([]string, numStages)
	for i := range stageNames {
		out[i] = stageNames[i]
	}
	return out
}

// ParseStage maps a stage name (as stored in trod_spans) back to its Stage.
func ParseStage(name string) (Stage, bool) {
	for i, n := range stageNames {
		if n == name {
			return Stage(i), true
		}
	}
	return 0, false
}

// Span is one recorded stage: a node in a request's span tree. Start is unix
// nanoseconds; IDs are buffer-local (RootID is always the request span).
type Span struct {
	ID     uint32
	Parent uint32
	Stage  Stage
	Start  int64  // unix ns
	Dur    int64  // ns
	Seq    uint64 // commit sequence, when the stage is pinned to one
}

// End returns the span's end time in unix nanoseconds.
func (s *Span) End() int64 { return s.Start + s.Dur }

// RootID is the span ID of every Buf's root request span.
const RootID uint32 = 1

// BufCap is the fixed per-request span capacity. A request touches each
// stage a handful of times (OCC retries re-run plan/execute), so 64 covers
// real trees with room; overflow increments Dropped instead of allocating.
const BufCap = 64

// Buf records one request's spans. Appends are lock-free: each Record
// reserves a slot with one atomic add and writes it exclusively. All methods
// are nil-safe — a nil *Buf is the disabled-tracing fast path and performs
// no work and no allocations.
type Buf struct {
	TraceID uint64

	n       atomic.Int32
	dropped atomic.Uint32
	seq     atomic.Uint64
	spans   [BufCap]Span
}

// NewBuf starts a trace buffer. Slot 0 is reserved for the root request
// span (ID RootID), whose timing is filled by Finish; rootParent is the
// caller's span ID in the upstream process (0 when this is the trace root).
func NewBuf(traceID uint64, rootParent uint32) *Buf {
	b := &Buf{TraceID: traceID}
	b.n.Store(1)
	b.spans[0] = Span{ID: RootID, Parent: rootParent, Stage: StageRequest}
	return b
}

// reserve claims one slot and returns its span ID (0 when full or nil).
func (b *Buf) reserve() uint32 {
	if b == nil {
		return 0
	}
	idx := b.n.Add(1) - 1
	if int(idx) >= BufCap {
		b.dropped.Add(1)
		return 0
	}
	return uint32(idx) + 1
}

// Record appends a completed span and returns its ID (0 if dropped).
func (b *Buf) Record(stage Stage, parent uint32, start time.Time, d time.Duration) uint32 {
	return b.RecordNs(stage, parent, start.UnixNano(), int64(d), 0)
}

// RecordNs is Record with raw nanosecond timing and an optional commit
// sequence — the form used where one measured window is split into sibling
// stages (OCC validate vs WAL append) from computed components.
func (b *Buf) RecordNs(stage Stage, parent uint32, startNs, durNs int64, seq uint64) uint32 {
	id := b.reserve()
	if id == 0 {
		return 0
	}
	b.spans[id-1] = Span{ID: id, Parent: parent, Stage: stage, Start: startNs, Dur: durNs, Seq: seq}
	return id
}

// Reserve claims a span ID before its timing is known, so later spans can
// parent under it (plan_compile under parse_plan); Complete fills it in.
func (b *Buf) Reserve(stage Stage, parent uint32) uint32 {
	id := b.reserve()
	if id == 0 {
		return 0
	}
	b.spans[id-1] = Span{ID: id, Parent: parent, Stage: stage}
	return id
}

// Complete fills a Reserved span's timing.
func (b *Buf) Complete(id uint32, start time.Time, d time.Duration) {
	if b == nil || id == 0 || int(id) > BufCap {
		return
	}
	b.spans[id-1].Start = start.UnixNano()
	b.spans[id-1].Dur = int64(d)
}

// Finish stamps the root request span's timing.
func (b *Buf) Finish(start time.Time, d time.Duration) {
	if b == nil {
		return
	}
	b.spans[0].Start = start.UnixNano()
	b.spans[0].Dur = int64(d)
}

// NoteSeq associates the request with the commit sequence it produced (set
// by the db layer at commit; read at completion to correlate replica-side
// spans and to link the trace to time-travel replay).
func (b *Buf) NoteSeq(seq uint64) {
	if b == nil {
		return
	}
	b.seq.Store(seq)
	b.spans[0].Seq = seq
}

// CommitSeq returns the commit sequence noted by NoteSeq (0 if none).
func (b *Buf) CommitSeq() uint64 {
	if b == nil {
		return 0
	}
	return b.seq.Load()
}

// Len returns the number of recorded spans.
func (b *Buf) Len() int {
	if b == nil {
		return 0
	}
	n := int(b.n.Load())
	if n > BufCap {
		n = BufCap
	}
	return n
}

// Dropped returns how many spans overflowed the buffer.
func (b *Buf) Dropped() uint32 {
	if b == nil {
		return 0
	}
	return b.dropped.Load()
}

// Spans returns a copy of the recorded spans (root first). Call only after
// the request finished; concurrent appends are not snapshotted coherently.
func (b *Buf) Spans() []Span {
	if b == nil {
		return nil
	}
	out := make([]Span, b.Len())
	copy(out, b.spans[:len(out)])
	return out
}

// Trace is one completed, tail-sampled request: the unit a Collector hands
// to its sink (the server writes it to the trod_spans system table).
type Trace struct {
	TraceID uint64
	ReqID   string
	Kind    string // request kind: query, exec, commit, replica
	Status  string // ok, conflict, error
	Wall    time.Duration
	Start   time.Time
	Seq     uint64 // commit sequence (0 for reads)
	Spans   []Span
}

// CollectorStats counts sampling outcomes.
type CollectorStats struct {
	Started uint64 // traces offered for a keep/drop decision
	Kept    uint64 // traces kept (always-keep or probabilistic)
	Sampled uint64 // traces dropped by the probabilistic sampler
}

// CollectorOptions tunes a Collector.
type CollectorOptions struct {
	// Sample is the probability (0..1) of keeping a trace that is neither
	// an error nor over-threshold. 1 keeps everything.
	Sample float64
	// KeepOver always keeps traces at least this slow (0 = disabled).
	KeepOver time.Duration
}

// Collector makes the tail-sampling decision at request completion and
// hands kept traces to its sink (SetOnKeep). It keeps none itself. It also
// carries the trace-ID allocator.
type Collector struct {
	sample   float64
	keepOver time.Duration
	onKeep   atomic.Pointer[func(*Trace)]

	nextTrace atomic.Uint64
	started   atomic.Uint64
	kept      atomic.Uint64
	sampled   atomic.Uint64
}

// NewCollector builds a Collector; returns nil (tracing disabled) when
// neither Sample nor KeepOver would ever keep a trace.
func NewCollector(opts CollectorOptions) *Collector {
	if opts.Sample <= 0 && opts.KeepOver <= 0 {
		return nil
	}
	return &Collector{sample: opts.Sample, keepOver: opts.KeepOver}
}

// Enabled reports whether tracing is on (nil-safe).
func (c *Collector) Enabled() bool { return c != nil }

// NextTraceID allocates a fresh nonzero trace ID.
func (c *Collector) NextTraceID() uint64 {
	return c.nextTrace.Add(1)
}

// SeedTraceIDs advances the allocator so IDs don't collide with another
// process's (the client seeds a distinct range from the server).
func (c *Collector) SeedTraceIDs(base uint64) {
	if c == nil {
		return
	}
	c.nextTrace.Store(base)
}

// SetOnKeep attaches the sink that receives every kept trace — the server
// wires its trod_spans store here in New. The sink runs on the request path,
// so it must not block (enqueue and return). Traces kept before it is set
// go nowhere.
func (c *Collector) SetOnKeep(fn func(*Trace)) {
	if c == nil {
		return
	}
	c.onKeep.Store(&fn)
}

// splitmix64 is the probabilistic-keep hash: deterministic per trace ID, no
// shared state, no math/rand.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Offer makes the tail-sampling decision for a completed trace: error and
// conflict traces and traces slower than KeepOver are always kept, the rest
// kept with probability Sample. Returns whether the trace was kept.
func (c *Collector) Offer(t *Trace) bool {
	if c == nil || t == nil {
		return false
	}
	c.started.Add(1)
	keep := t.Status != "ok" ||
		(c.keepOver > 0 && t.Wall >= c.keepOver) ||
		c.sample >= 1
	if !keep && c.sample > 0 {
		// Compare in 32-bit space so the threshold conversion cannot
		// overflow for samples rounding up to 1.
		keep = splitmix64(t.TraceID)>>32 < uint64(c.sample*float64(1<<32))
	}
	if !keep {
		c.sampled.Add(1)
		return false
	}
	c.kept.Add(1)
	if fn := c.onKeep.Load(); fn != nil {
		(*fn)(t)
	}
	return true
}

// Stats returns sampling counters.
func (c *Collector) Stats() CollectorStats {
	if c == nil {
		return CollectorStats{}
	}
	return CollectorStats{
		Started: c.started.Load(),
		Kept:    c.kept.Load(),
		Sampled: c.sampled.Load(),
	}
}
